package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.util.Comparator

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col

import repro.cache.CapCache
import repro.core.{Cap, Miscela, TimeIndex}
import repro.evolve.EvolvingTimestamps
import repro.geo.SpatialJoin
import repro.graph.ConnectedComponents
import repro.segment.LinearSegmentation
import repro.viz.{JValue, JsonExport}

/** The ingested dataset every request reads: set-up persists both frames. */
final case class Ingested(data: DataFrame, locations: DataFrame, original: Map[String, String], records: Long)

/** What one request did and whether its output was right. `counts` holds
  * the Spark listener's per-request figures (traced runs only).
  */
final case class Outcome(
    id: String,
    kind: String,
    traced: Boolean,
    hit: Boolean,
    wallNs: Long,
    cpuNs: Long,
    jitMs: Long,
    gcMs: Long,
    checkNs: Long,
    error: Option[String],
    storeBytes: Long,
    exportBytes: Long,
    storageMb: Double,
    counts: Map[String, Double],
)

/** Issues requests on the MISCELA-V request path, one at a time, and checks
  * each one's output outside its timed interval.
  *
  * An untraced request is exactly what `MineCapsJob` runs:
  * `CapCache.getOrCompute { Miscela.mine }`, then `JsonExport.writeAll`. A
  * traced request calls the layers' public functions one by one, forcing
  * each layer's output inside its span (see perfbench/README.md).
  */
final class Requests(
    spark: SparkSession,
    w: Workload,
    in: Ingested,
    work: Path,
    tracer: Tracer,
    counters: Option[SparkCounters],
) {
  import spark.implicits._

  private val sc = spark.sparkContext
  private var issued = 0
  private var lastStore: Option[Path] = None

  /** Issues one request. A miss request gets a fresh, empty store, which is
    * kept until the next miss; a hit request re-submits the same
    * parameters to the last miss's store.
    */
  def run(kind: String, traced: Boolean, expectHit: Boolean): Outcome = {
    issued += 1
    val id = s"${if (traced) "t" else "r"}$issued"
    if (!expectHit) {
      lastStore.foreach(Requests.delete)
      lastStore = Some(work.resolve(s"store-$id"))
    }
    val store = lastStore.getOrElse(throw new IllegalStateException("a hit request needs a miss before it"))
    val out = work.resolve(s"out-$id")
    if (!traced) sc.setJobGroup(id, kind)
    var persisted = Seq.empty[Dataset[_]]
    val (cpu0, jit0, gc0) = (Requests.cpuNs(), Requests.jitMs(), Requests.gcMs())
    val t0 = System.nanoTime()
    val attempt = Try {
      if (traced) tracer.root(id, "request") {
        val (hit, kept) = tracedRequest(store, out)
        persisted = kept
        hit
      }
      else untracedRequest(store, out)
    }
    val wallNs = System.nanoTime() - t0
    val cpuNs = Requests.cpuNs() - cpu0
    val (jitMs, gcMs) = (Requests.jitMs() - jit0, Requests.gcMs() - gc0)
    if (!traced) sc.clearJobGroup()
    persisted.foreach(_.unpersist(true))

    val c0 = System.nanoTime()
    val error = attempt match {
      case Failure(e) => Some(e.toString)
      case Success(hit) if hit != expectHit => Some(s"cache ${if (hit) "hit" else "miss"}, expected the other")
      case Success(_) =>
        val got = CapCheck.canonical(CapCheck.readCapsJson(spark, out.resolve("caps.json")), in.original)
        if (got == w.reference) None else Some(s"CAP set $got differs from the reference ${w.reference}")
    }
    val checkNs = System.nanoTime() - c0
    val storeBytes = Requests.bytesUnder(store)
    val exportBytes = Requests.bytesUnder(out)
    Requests.delete(out)
    val counts = counters.fold(Map.empty[String, Double]) { c =>
      c.flush()
      if (traced) Map("graph.spark_jobs" -> c.stats(tracer.group("graph.cc")).jobs.toDouble)
      else {
        val s = c.stats(id)
        Map(
          "spark.jobs" -> s.jobs.toDouble,
          "spark.stages" -> s.stages.toDouble,
          "spark.tasks" -> s.tasks.toDouble,
          "spark.shuffle_write_mb" -> s.shuffleWriteBytes / 1e6,
          "spark.busy_ratio" -> s.taskRunMs * 1e6 / (wallNs.toDouble * sc.defaultParallelism),
        )
      }
    }
    Outcome(id, kind, traced, attempt.getOrElse(false), wallNs, cpuNs, jitMs, gcMs, checkNs, error,
      storeBytes, exportBytes, Requests.storageMb(spark), counts)
  }

  private def untracedRequest(store: Path, out: Path): Boolean = {
    val cache = new CapCache(store.toString)
    val (caps, hit) = cache.getOrCompute(spark, w.dataset, w.params) {
      Miscela.mine(spark, in.data, in.locations, w.params)
    }
    JsonExport.writeAll(out.toString, caps, in.locations, in.data)
    hit
  }

  /** The request path layer by layer; returns the cache-hit flag and the
    * frames it persisted, which the caller frees after the request.
    */
  private def tracedRequest(store: Path, out: Path): (Boolean, Seq[Dataset[_]]) = {
    val cache = new CapCache(store.toString)
    val found = tracer.span("cache.lookup")(cache.get(spark, w.dataset, w.params))
    val persisted = if (found.isEmpty) mineAndPut(cache) else Nil
    val caps = tracer.span("cache.read") {
      found.getOrElse(cache.get(spark, w.dataset, w.params).get).collect().toSeq
    }
    tracer.span("export") {
      // The payloads JsonExport.writeAll writes, one span each.
      Files.createDirectories(out)
      tracer.span("export.caps_json")(write(out.resolve("caps.json"), JsonExport.capsJson(caps)))
      tracer.span("export.geojson") {
        write(out.resolve("sensors.geojson"), JsonExport.sensorsGeoJson(in.locations, caps))
      }
      tracer.span("export.series") {
        caps.sortBy(c => (c.attributes.mkString(","), c.sensors.mkString(","), c.support))
          .sortBy(-_.support).take(3).zipWithIndex
          .foreach { case (c, i) => write(out.resolve(s"series-$i.json"), JsonExport.seriesJson(in.data, c)) }
      }
    }
    (found.isDefined, persisted)
  }

  /** Stages 1–4 and the cache write of a miss. Stages 1–3 run standalone,
    * each persisted and counted inside its span. `Miscela.routed` takes
    * only the raw frames, so the `route` span recomputes them before
    * routing (see perfbench/README.md).
    */
  private def mineAndPut(cache: CapCache): Seq[Dataset[_]] = {
    val p = w.params
    val persisted = mutable.ArrayBuffer.empty[Dataset[_]]
    def forced(name: String, count: String)(df: => DataFrame): DataFrame =
      tracer.counted(name) {
        val d = df.persist()
        persisted += d
        (d, d.count())
      }(r => Map(count -> r._2.toDouble))._1

    val indexed = forced("timeindex", "rows") {
      TimeIndex.attach(in.data).select(col("id"), col("tIdx"), col("data").cast("double").as("value"))
    }
    val smoothed = forced("segment", "rows_out")(LinearSegmentation.smooth(indexed, p.delta))
    forced("evolve", "events")(EvolvingTimestamps.extract(smoothed, p.epsilon))
    val edges = forced("geo.join", "edges")(SpatialJoin.edges(spark, in.locations, p.etaKm))
    tracer.counted("graph.cc") {
      ConnectedComponents.run(spark, in.locations.select(col("id")), edges)
        .collect().groupBy(_.get(1)).values.map(_.length)
    }(sizes => Map("components" -> sizes.size.toDouble, "largest" -> sizes.max.toDouble))

    val (sensors, compEdges, nT) = tracer.counted("route") {
      val (s, e, nT) = Miscela.routed(spark, in.data, in.locations, p)
      (s.collect(), e.collect(), nT)
    }(r => Map("sensors_kept" -> r._1.length.toDouble, "timestamps" -> r._3.toDouble))
    val caps = tracer.counted("search") {
      val edgesOf = compEdges.groupBy(_.component)
      sensors.groupBy(_.component).toSeq.sortBy(_._1).flatMap { case (c, members) =>
        tracer.span("search.component") {
          Miscela.searchAssembled(members, edgesOf.getOrElse(c, Array.empty), nT, p, useNaive = false)
        }
      }
    }(c => Map("caps" -> c.size.toDouble))
    tracer.span("cache.put")(cache.put(w.dataset, p, caps.toDS()))
    persisted.toSeq
  }

  private def write(path: Path, v: JValue): Unit = Files.write(path, v.render.getBytes(UTF_8))
}

object Requests {

  def cpuNs(): Long = ManagementFactory.getOperatingSystemMXBean match {
    case os: com.sun.management.OperatingSystemMXBean => os.getProcessCpuTime
    case _                                            => 0L
  }

  /** Time the JIT compilers have spent so far. */
  def jitMs(): Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  /** Time the garbage collectors have spent so far. */
  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Memory and disk held by Spark's persisted and checkpointed blocks. */
  def storageMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

  def bytesUnder(p: Path): Long =
    if (!Files.exists(p)) 0L
    else {
      val s = Files.walk(p)
      try s.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum()
      finally s.close()
    }

  def delete(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(Comparator.reverseOrder[Path]()).forEach(Files.delete(_))
      finally s.close()
    }
}
