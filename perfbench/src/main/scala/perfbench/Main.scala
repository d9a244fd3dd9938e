package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}

import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Try

import org.apache.spark.sql.SparkSession

import repro.core.Miscela
import repro.jobs.JobUtil

/** The MISCELA-V request-path benchmark: one closed-loop client submits the
  * workload's request, waits for the payloads, checks them, and submits the
  * next. Prints one JSON result as its last line of output; see
  * perfbench/README.md for workloads, metrics and tracing.
  *
  * {{{
  * perfbench.Main --workload santander-miss --seed 1 --seconds 6 --trace 0 \
  *   --work DIR --results DIR [--reference 1]
  * }}}
  */
object Main {

  /** Set-ups per run; `setup_s` is their median. The first runs in a cold
    * JVM, so two keep a run short enough for the benchmark's time budget.
    */
  val SetupReps = 2

  /** Timed misses per run at least, however short `--seconds` is. */
  val MinTimedRequests = 2

  /** Cache hits a traced run issues after its misses, half of them traced. */
  val TracedRunHits = 4

  final case class Opts(
      workload: String,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      work: Path,
      results: Path,
      reference: Boolean,
  )

  private val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime

  /** A progress line on stderr, stamped with seconds since the JVM started. */
  private def progress(msg: String): Unit =
    Console.err.println(f"perfbench: ${(System.currentTimeMillis() - jvmStart) / 1e3}%.1f s: $msg")

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workloads.byName(o.workload)
    Files.createDirectories(o.work)
    Files.createDirectories(o.results)
    // The session MineCapsJob runs under: same master, shuffle partitions
    // and broadcast threshold.
    val spark = JobUtil.session("perfbench")
    progress("Spark session up")
    val code =
      try if (o.reference) reference(spark, w, o) else bench(spark, w, o)
      finally spark.stop()
    sys.exit(code)
  }

  private def parse(args: Array[String]): Opts = {
    val kv = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.stripPrefix("--") -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toInt,
      trace = need("trace") == "1",
      work = Paths.get(need("work")),
      results = Paths.get(need("results")),
      reference = kv.get("reference").contains("1"),
    )
  }

  private def bench(spark: SparkSession, w: Workload, o: Opts): Int = {
    val sc = spark.sparkContext
    val tracer = new Tracer(sc)
    val counters = if (o.trace) Some(new SparkCounters(sc)) else None
    counters.foreach(sc.addSparkListener)

    // Set-up runs several times; the last one's frames serve the requests.
    var last: Option[(Path, Ingested)] = None
    val setupS = (1 to SetupReps).map { rep =>
      last.foreach { case (dir, prev) =>
        prev.data.unpersist(true)
        prev.locations.unpersist(true)
        Requests.delete(dir)
      }
      val dir = o.work.resolve(s"setup$rep")
      last = Some(dir -> Setup.once(spark, w, o.seed, dir, tracer))
      progress(s"set-up $rep done")
      tracer.spans.filter(s => s.request == s"setup$rep" && Setup.Steps.contains(s.name)).map(_.durNs).sum / 1e9
    }
    val in = last.get._2
    val storageAfterSetupMb = Requests.storageMb(spark)

    val requests = new Requests(spark, w, in, o.work, tracer, counters)
    val outcomes = mutable.ArrayBuffer.empty[Outcome]
    (1 to w.warmups).foreach(_ => outcomes += requests.run("warmup", traced = false, expectHit = false))
    progress("warm-up done")

    // Misses in a closed loop until the deadline and at least two untraced
    // ones; a traced run alternates untraced and traced requests and needs
    // at least one traced.
    val ticks0 = cpuTicks()
    val start = System.nanoTime()
    def done(traced: Boolean) = outcomes.count(x => x.kind == "miss" && x.traced == traced)
    var k = 0
    while (System.nanoTime() - start < o.seconds * 1000000000L || done(false) < MinTimedRequests ||
        (o.trace && done(true) == 0)) {
      outcomes += requests.run("miss", traced = o.trace && k % 2 == 1, expectHit = false)
      k += 1
    }
    val measuredS = (System.nanoTime() - start) / 1e9
    val stealShare = (for ((s0, t0) <- ticks0; (s1, t1) <- cpuTicks()) yield (s1 - s0).toDouble / (t1 - t0))
      .getOrElse(Double.NaN)
    progress("misses done")
    // A traced run then re-submits the same parameters, for the cache
    // layers of a hit.
    if (o.trace) {
      outcomes += requests.run("hit-warmup", traced = false, expectHit = true)
      (1 to TracedRunHits).foreach(i => outcomes += requests.run("hit", traced = i % 2 == 0, expectHit = true))
      progress("hits done")
    }
    val misses = outcomes.filter(x => x.kind == "miss" && !x.traced).toSeq

    val metrics =
      if (o.trace) perLayer(tracer, outcomes.toSeq)
      else ListMap(
        "request_p50_ms" -> (median(misses.map(_.wallNs / 1e6)), "ms"),
        "cpu_ms_per_request" -> (misses.map(_.cpuNs).sum / 1e6 / misses.size, "ms"),
        "setup_s" -> (median(setupS), "s"),
        "retained_heap_mb" -> (retainedHeapMb(), "MB"),
      )

    progress("metrics done")
    val failed = outcomes.count(_.error.isDefined)
    val env = environment(spark, w, o, misses.size, stealShare)
    val detail = ListMap(
      "env" -> env,
      "setup_s" -> setupS,
      "measured_s" -> measuredS,
      "storage_after_setup_mb" -> storageAfterSetupMb,
      "findings" -> findings(misses, storageAfterSetupMb),
      "requests" -> outcomes.map(x => ListMap(
        "id" -> x.id, "kind" -> x.kind, "traced" -> x.traced, "hit" -> x.hit, "error" -> x.error.orNull,
        "wall_ms" -> x.wallNs / 1e6, "cpu_ms" -> x.cpuNs / 1e6, "jit_ms" -> x.jitMs, "gc_ms" -> x.gcMs,
        "check_ms" -> x.checkNs / 1e6, "store_bytes" -> x.storeBytes, "export_bytes" -> x.exportBytes,
        "storage_mb" -> x.storageMb, "counts" -> x.counts,
      )),
      "spans" -> spansJson(tracer),
    )
    val resultFile = o.results.resolve(s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json")
    Files.write(resultFile, Js.render(detail).getBytes(UTF_8))
    for (x <- outcomes; e <- x.error) Console.err.println(s"perfbench: FAILED ${x.id} (${x.kind}): $e")
    println(s"perfbench env ${Js.render(env)}")
    println(s"perfbench detail $resultFile")
    println(Js.render(ListMap(
      "correct" -> (failed == 0),
      "attempted" -> outcomes.size,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, unit)) => k -> ListMap("value" -> v, "unit" -> unit) },
    )))
    0
  }

  /** Per-layer metrics of a traced run: medians over the traced misses,
    * except the cache lookup and read, which come from the traced hits.
    * Set-up layers are medians over the set-up repetitions, Spark engine
    * figures medians over the untraced misses.
    */
  private def perLayer(tracer: Tracer, outcomes: Seq[Outcome]): ListMap[String, (Double, String)] = {
    val spans = tracer.spans.toSeq
    val self = tracer.selfNs(spans)
    val spansOf = spans.groupBy(_.request)
    def of(kind: String, traced: Boolean) = outcomes.filter(x => x.kind == kind && x.traced == traced)
    val (misses, tracedMisses) = (of("miss", traced = false), of("miss", traced = true))
    val (hits, tracedHits) = (of("hit", traced = false), of("hit", traced = true))
    val setups = (1 to SetupReps).map(r => spansOf(s"setup$r"))
    val missSpans = tracedMisses.map(x => spansOf(x.id))
    val hitSpans = tracedHits.map(x => spansOf(x.id))
    val hitPhase = outcomes.filter(_.kind.startsWith("hit"))

    def med(xs: Seq[Double]) = if (xs.isEmpty) Double.NaN else median(xs)
    def named(name: String, in: Seq[Span]) = in.filter(_.name == name)
    def ms(name: String, from: Seq[Seq[Span]] = missSpans) =
      med(from.map(named(name, _)).filter(_.nonEmpty).map(_.map(_.durNs).sum / 1e6))
    def selfMs(name: String) = med(missSpans.flatMap(named(name, _)).map(s => self(s.id) / 1e6))
    def count(name: String, key: String, from: Seq[Seq[Span]] = missSpans) =
      med(from.flatMap(named(name, _)).map(_.counts(key)))
    def spark(key: String) = med(misses.map(_.counts(key)))

    val m = ListMap(
      "data.generate_ms" -> (ms("data.generate", setups), "ms"),
      "ingest.export_ms" -> (ms("ingest.export", setups), "ms"),
      "ingest.chunk_ms" -> (ms("ingest.chunk", setups), "ms"),
      "ingest.read_validate_ms" -> (ms("ingest.read_validate", setups), "ms"),
      "ingest.records" -> (count("ingest.read_validate", "records", setups), "count"),
      "timeindex.ms" -> (ms("timeindex"), "ms"),
      "timeindex.timestamps" -> (count("route", "timestamps"), "count"),
      "segment.ms" -> (ms("segment"), "ms"),
      "segment.rows_out" -> (count("segment", "rows_out"), "count"),
      "evolve.ms" -> (ms("evolve"), "ms"),
      "evolve.events" -> (count("evolve", "events"), "count"),
      "geo.join_ms" -> (ms("geo.join"), "ms"),
      "geo.edges" -> (count("geo.join", "edges"), "count"),
      "graph.cc_ms" -> (ms("graph.cc"), "ms"),
      "graph.components" -> (count("graph.cc", "components"), "count"),
      "graph.largest_component" -> (count("graph.cc", "largest"), "count"),
      "graph.spark_jobs" -> (med(tracedMisses.map(_.counts("graph.spark_jobs"))), "count"),
      "route.ms" -> (ms("route"), "ms"),
      "route.sensors_kept" -> (count("route", "sensors_kept"), "count"),
      "search.ms" -> (ms("search"), "ms"),
      "search.max_component_ms" -> (med(missSpans.map(s => named("search.component", s).map(_.durNs / 1e6).max)), "ms"),
      "search.caps" -> (count("search", "caps"), "count"),
      "cache.hit_request_ms" -> (med(hits.map(_.wallNs / 1e6)), "ms"),
      "cache.lookup_ms" -> (ms("cache.lookup", hitSpans), "ms"),
      "cache.put_ms" -> (ms("cache.put"), "ms"),
      "cache.read_ms" -> (ms("cache.read", hitSpans), "ms"),
      "cache.bytes" -> (med(tracedMisses.map(_.storeBytes.toDouble)), "bytes"),
      "cache.hit_ratio" -> (hitPhase.count(_.hit).toDouble / hitPhase.size, "ratio"),
      "export.caps_json_ms" -> (ms("export.caps_json"), "ms"),
      "export.geojson_ms" -> (ms("export.geojson"), "ms"),
      "export.series_ms" -> (ms("export.series"), "ms"),
      "export.bytes" -> (med(tracedMisses.map(_.exportBytes.toDouble)), "bytes"),
      "spark.jobs" -> (spark("spark.jobs"), "count"),
      "spark.stages" -> (spark("spark.stages"), "count"),
      "spark.tasks" -> (spark("spark.tasks"), "count"),
      "spark.shuffle_write_mb" -> (spark("spark.shuffle_write_mb"), "MB"),
      "spark.busy_ratio" -> (spark("spark.busy_ratio"), "ratio"),
      "spark.storage_mb" -> (outcomes.last.storageMb, "MB"),
      "trace.unattributed_ms" -> (selfMs("request"), "ms"),
      "trace.overhead_ms" -> (med(tracedMisses.map(_.wallNs / 1e6)) - med(misses.map(_.wallNs / 1e6)), "ms"),
    )
    val missing = m.collect { case (k, (v, _)) if v.isNaN => k }
    require(missing.isEmpty, s"traced run measured no value for ${missing.mkString(", ")}")
    m
  }

  /** Drift within the run, recorded as findings rather than tuned away. */
  private def findings(untraced: Seq[Outcome], storageAfterSetupMb: Double): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    if (untraced.size >= 2) {
      val (first, last) = (untraced.head, untraced.last)
      val growth = last.storageMb - first.storageMb
      if (math.abs(growth) > 0.1)
        out += f"Spark storage held went from ${first.storageMb}%.2f MB after the first timed request " +
          f"to ${last.storageMb}%.2f MB after the last " +
          f"(${untraced.size} requests; $storageAfterSetupMb%.2f MB after set-up)"
      val half = untraced.size / 2
      val early = median(untraced.take(half).map(_.wallNs / 1e6))
      val late = median(untraced.drop(untraced.size - half).map(_.wallNs / 1e6))
      if (math.abs(late / early - 1) > 0.1)
        out += f"request latency drifted from a median of $early%.1f ms over the first $half timed requests " +
          f"to $late%.1f ms over the last $half"
    }
    out.toSeq
  }

  private def environment(spark: SparkSession, w: Workload, o: Opts, misses: Int, steal: Double)
      : ListMap[String, Any] = {
    val sc = spark.sparkContext
    ListMap(
      "workload" -> w.name,
      "seed" -> o.seed,
      "seconds" -> o.seconds,
      "trace" -> o.trace,
      "timed_requests" -> misses,
      "cpu_steal_share" -> steal,
      "warmup_requests" -> w.warmups,
      "setup_reps" -> SetupReps,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "spark.master" -> sc.master,
      "spark.version" -> sc.version,
      "defaultParallelism" -> sc.defaultParallelism,
      "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "java.version" -> System.getProperty("java.version"),
      "jvm.max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
      "jvm.heap_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .filter(a => a.startsWith("-Xms") || a.startsWith("-Xmx")).mkString(" "),
    )
  }

  private def spansJson(tracer: Tracer): Seq[ListMap[String, Any]] = {
    val t0 = tracer.spans.map(_.startNs).minOption.getOrElse(0L)
    val self = tracer.selfNs(tracer.spans.toSeq)
    tracer.spans.toSeq.sortBy(_.startNs).map(s => ListMap(
      "id" -> s.id, "name" -> s.name, "request" -> s.request, "parent" -> s.parent,
      "start_ms" -> (s.startNs - t0) / 1e6, "end_ms" -> (s.endNs - t0) / 1e6, "self_ms" -> self(s.id) / 1e6,
      "counts" -> s.counts,
    ))
  }

  /** (steal, total) CPU ticks of the machine so far, from /proc/stat: steal
    * is time the hypervisor gave this machine's CPUs to someone else.
    */
  private def cpuTicks(): Option[(Long, Long)] = Try {
    val f = Files.readAllLines(Paths.get("/proc/stat")).get(0).trim.split("\\s+").drop(1).map(_.toLong)
    (f(7), f.take(8).sum)
  }.toOption

  /** Driver heap still in use after a full collection: each heap pool's
    * usage as the collection left it. Spark's ContextCleaner frees blocks
    * only after a collection has found their owners unreachable, so this
    * collects until the figure stops falling.
    */
  private def retainedHeapMb(): Double = {
    def afterGc(): Double = {
      System.gc()
      Thread.sleep(200)
      ManagementFactory.getMemoryPoolMXBeans.asScala
        .filter(p => p.getType == MemoryType.HEAP && p.getCollectionUsage != null)
        .map(_.getCollectionUsage.getUsed).sum / 1e6
    }
    var (last, now, rounds) = (Double.MaxValue, afterGc(), 1)
    while (last - now > 1.0 && rounds < 10) {
      last = now
      now = afterGc()
      rounds += 1
    }
    now
  }

  /** Checks the workload's fixed reference against both search strategies:
    * `--reference 1` prints the count and digest each one gives.
    */
  private def reference(spark: SparkSession, w: Workload, o: Opts): Int = {
    val in = Setup.once(spark, w, o.seed, o.work.resolve("setup1"), new Tracer(spark.sparkContext))
    def digest(useNaive: Boolean) = CapCheck.canonical(
      Miscela.mine(spark, in.data, in.locations, w.params, useNaive).collect().iterator
        .map(c => (c.attributes, c.sensors, c.support)),
      in.original)
    val (fast, naive) = (digest(useNaive = false), digest(useNaive = true))
    println(s"${w.name} seed ${o.seed}: search $fast, naive $naive, fixed ${w.reference}")
    if (fast == naive && naive == w.reference) 0 else 1
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** A small JSON writer for the result line and the detail file. */
object Js {
  def render(v: Any): String = v match {
    case null                   => "null"
    case s: String              => quote(s)
    case d: Double              => if (d.isNaN || d.isInfinite) "null" else d.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}:${render(x)}" }.mkString("{", ",", "}")
    case xs: Iterable[_]        => xs.map(render).mkString("[", ",", "]")
    case other                  => other.toString
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"'          => "\\\""
      case '\\'         => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c            => c.toString
    }.mkString("\"", "", "\"")
}
