#!/usr/bin/env python3
"""Runs the MISCELA-V request-path benchmark from the root of a checkout.

    python3 perfbench/run.py --workload santander-miss --seed 1 --seconds 6 --trace 0

Builds the program and the benchmark from source with sbt on first use
(output under .bench_build/), then starts one JVM that sets up the workload,
runs its requests in a closed loop and prints one JSON result as the last
line of standard output. `--reference` instead checks the workload's fixed
reference CAP set against both search strategies. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["santander-miss", "china6-miss"]
BENCH = Path("perfbench")
OUT = Path(".bench_build") / "perfbench"
CLASSPATH = OUT / "target" / "classpath.txt"
STAMP = OUT / "build.stamp"
SOURCES = [Path("src/main/scala"), Path("jobs"),
           BENCH / "src", BENCH / "build.sbt", BENCH / "project" / "build.properties"]
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840
HEAP = "3g"

# The JPMS opens Spark needs on Java 17, as the repo's build passes them.
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    for root in SOURCES:
        if not root.exists():
            fail(f"{root} is missing: run from the root of a checkout of the repository")
        files = sorted(p for p in ([root] if root.is_file() else root.rglob("*")) if p.is_file())
        for p in files:
            h.update(str(p).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def build():
    stamp = source_stamp()
    if CLASSPATH.exists() and STAMP.exists() and STAMP.read_text() == stamp:
        return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        env["SBT_OPTS"] = f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} -Dsbt.offline=true"
    cmd = ["sbt", "--batch", "-J-XX:-UsePerfData", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "writeClasspath"]
    res = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    if res.returncode != 0 or not CLASSPATH.exists():
        fail(f"build failed (sbt exit {res.returncode})")
    STAMP.write_text(stamp)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--reference", action="store_true")
    a = ap.parse_args()

    build()
    root = Path.cwd()
    work = root / OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    # The session MineCapsJob builds: local[N] over every core, 64 shuffle
    # partitions, the default broadcast threshold.
    env["SPARK_MASTER"] = f"local[{len(os.sched_getaffinity(0))}]"
    env["SPARK_SHUFFLE_PARTITIONS"] = "64"
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", *OPENS,
           "-Djdk.reflect.useDirectMethodHandleAccessor=false",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Dlog4j2.configurationFile={root / BENCH / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={work}", f"-Dspark.local.dir={work / 'spark'}",
           f"-Dspark.sql.warehouse.dir={work / 'warehouse'}",
           "-cp", CLASSPATH.read_text().strip(), "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace),
           "--work", str(work), "--results", str(root / OUT / "results"),
           "--reference", "1" if a.reference else "0"]
    proc = subprocess.Popen(cmd, cwd=work, env=env)
    # On SIGTERM, unwind through the finally below, which stops the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
