package repro.viz

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import java.security.MessageDigest

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import org.apache.spark.unsafe.types.UTF8String

import repro.SparkSpec
import repro.cache.CapCache
import repro.core.{Cap, CapParams, CapTable, CapTableSpec, Miscela}
import repro.core.TinyWorld
import repro.data.SmartCityData

/** The CAP list and GeoJSON writers as they were before the CAP table:
  * trees of JSON nodes over the CAPs sorted by their joined lists, rendered
  * by one `StringBuilder` walk and encoded as UTF-8. Kept as the oracle of
  * the byte writers, with the series query as it was before the series were
  * read off the stage 1–2 shuffle.
  */
private object TreeExport {

  /** A JSON value, as the payloads use them. */
  private sealed trait Node
  private case object Null extends Node
  private final case class Num(x: Double) extends Node
  private final case class Str(s: String) extends Node
  private final case class Arr(xs: Seq[Node]) extends Node
  private final case class Obj(fields: (String, Node)*) extends Node

  /** One CAP's series payload from a DataFrame query: its sensors' rows,
    * times formatted by `date_format` in the session time zone, each
    * sensor's points sorted by that text, then by time.
    */
  def seriesJson(data: DataFrame, cap: Cap): Array[Byte] = {
    val rows = data
      .where(col("id").isin(cap.sensors.distinct: _*))
      .select(col("id").cast("string"), date_format(col("time"), "yyyy-MM-dd HH:mm:ss"), unix_micros(col("time")),
        col("data").cast("double"))
      .collect()
    val bySensor = rows.groupBy(_.getString(0)).view.mapValues(_.sortBy(r => (r.getString(1), r.getLong(2)))).toMap
    bytes(Arr(cap.sensors.filter(bySensor.contains).sorted.map { id =>
      Obj(
        "sensor" -> Str(id),
        "points" -> Arr(bySensor(id).toIndexedSeq.map { r =>
          Arr(Seq(Str(r.getString(1)), if (r.isNullAt(3)) Null else Num(r.getDouble(3))))
        }),
      )
    }))
  }

  def capsJson(caps: Seq[Cap]): Array[Byte] = bytes(Arr(sorted(caps).zipWithIndex.map { case (c, i) =>
    Obj(
      "capId" -> Num(i.toDouble),
      "attributes" -> Arr(c.attributes.map(Str(_))),
      "sensors" -> Arr(c.sensors.map(Str(_))),
      "support" -> Num(c.support.toDouble),
    )
  }))

  def sensorsGeoJson(locations: DataFrame, caps: Seq[Cap]): Array[Byte] = {
    val ordered = sorted(caps)
    val capIds = mutable.HashMap.empty[String, mutable.ArrayBuffer[Node]]
    ordered.indices.foreach { i =>
      ordered(i).sensors.foreach(s => capIds.getOrElseUpdate(s, mutable.ArrayBuffer.empty) += Num(i.toDouble))
    }
    val rows = locations
      .select(col("id").cast("string"), col("attribute").cast("string"),
        col("lat").cast("double"), col("lon").cast("double"))
      .collect()
    val inIdOrder = rows.map(r => (UTF8String.fromString(r.getString(0)), r))
      .sortWith((a, b) => a._1.compareTo(b._1) < 0)
    val features = inIdOrder.toIndexedSeq.map { case (_, r) =>
      val id = r.getString(0)
      Obj(
        "type" -> Str("Feature"),
        "geometry" ->
          (if (r.isNullAt(2) || r.isNullAt(3)) Null
           else Obj("type" -> Str("Point"), "coordinates" -> Arr(Seq(Num(r.getDouble(3)), Num(r.getDouble(2)))))),
        "properties" -> Obj(
          "id" -> Str(id),
          "attribute" -> Str(r.getString(1)),
          "caps" -> Arr(capIds.get(id).fold(Seq.empty[Node])(_.toSeq)),
        ),
      )
    }
    bytes(Obj("type" -> Str("FeatureCollection"), "features" -> Arr(features)))
  }

  private def sorted(caps: Seq[Cap]): IndexedSeq[Cap] =
    caps.map(c => ((c.attributes.mkString(","), c.sensors.mkString(","), c.support), c))
      .sortBy(_._1).map(_._2).toIndexedSeq

  private def bytes(v: Node): Array[Byte] = {
    val out = new java.lang.StringBuilder
    append(v, out)
    out.toString.getBytes(UTF_8)
  }

  private def append(v: Node, out: java.lang.StringBuilder): Unit = v match {
    case Null   => out.append("null")
    case Num(x) =>
      if (x.isNaN || x.isInfinite) out.append("null")
      else if (x == math.floor(x) && math.abs(x) < 1e15) out.append(x.toLong)
      else out.append(java.lang.Double.toString(x))
    case Str(s)  => appendQuoted(s, out)
    case Arr(xs) =>
      out.append('[')
      xs.zipWithIndex.foreach { case (x, i) => if (i > 0) out.append(','); append(x, out) }
      out.append(']')
    case Obj(fields @ _*) =>
      out.append('{')
      fields.zipWithIndex.foreach { case ((k, x), i) =>
        if (i > 0) out.append(',')
        appendQuoted(k, out)
        out.append(':')
        append(x, out)
      }
      out.append('}')
  }

  private def appendQuoted(s: String, out: java.lang.StringBuilder): Unit = {
    out.append('"')
    s.foreach {
      case '"'          => out.append("\\\"")
      case '\\'         => out.append("\\\\")
      case '\b'         => out.append("\\b")
      case '\f'         => out.append("\\f")
      case '\n'         => out.append("\\n")
      case '\r'         => out.append("\\r")
      case '\t'         => out.append("\\t")
      case c if c < ' ' => out.append(f"\\u${c.toInt}%04x")
      case c            => out.append(c)
    }
    out.append('"')
  }
}

class JsonExportSpec extends SparkSpec {

  private val mapper = new ObjectMapper()

  private val caps = Seq(
    Cap(Seq("temperature", "trafficVolume"), Seq("a", "b"), 42),
    Cap(Seq("light", "temperature"), Seq("b", "c"), 7),
  )

  test("capsJson lists every CAP with attributes, sensors and support") {
    val tree = mapper.readTree(JsonExport.capsJson(caps).render)
    assert(tree.isArray && tree.size() == 2)
    // Sorted by attribute set: light+temperature first.
    assert(tree.get(0).get("attributes").get(0).asText() == "light")
    assert(tree.get(1).get("support").asLong() == 42L)
    assert(tree.get(1).get("sensors").get(0).asText() == "a")
    assert(tree.get(0).get("capId").asInt() == 0)
  }

  test("sensorsGeoJson is a FeatureCollection with lon-lat order and cap back-references") {
    val locs = TinyWorld.locDf(spark, Seq(
      ("a", "temperature", 43.46, -3.80),
      ("b", "trafficVolume", 43.47, -3.81),
      ("c", "light", 43.48, -3.82),
      ("d", "humidity", 43.49, -3.83),
    ))
    val tree = mapper.readTree(JsonExport.sensorsGeoJson(locs, caps).render)
    assert(tree.get("type").asText() == "FeatureCollection")
    val features = tree.get("features")
    assert(features.size() == 4)
    val byId = (0 until 4).map(i => features.get(i).get("properties").get("id").asText() -> features.get(i)).toMap
    // GeoJSON coordinate order is (lon, lat).
    assert(byId("a").get("geometry").get("coordinates").get(0).asDouble() == -3.80)
    assert(byId("a").get("geometry").get("coordinates").get(1).asDouble() == 43.46)
    // b participates in both caps, d in none.
    assert(byId("b").get("properties").get("caps").size() == 2)
    assert(byId("d").get("properties").get("caps").size() == 0)
  }

  test("seriesJson emits per-sensor point lists with null gaps") {
    val data = TinyWorld.dataDf(spark, Map(
      ("a", "temperature") -> Seq(Some(1.0), None, Some(3.0)),
      ("b", "trafficVolume") -> Seq(Some(10.0), Some(20.0), Some(30.0)),
      ("zz", "light") -> Seq(Some(0.0), Some(0.0), Some(0.0)),
    ))
    val tree = mapper.readTree(JsonExport.seriesJson(data, caps.head).render)
    assert(tree.size() == 2) // only the CAP's sensors, not zz
    val a = tree.get(0)
    assert(a.get("sensor").asText() == "a")
    assert(a.get("points").size() == 3)
    assert(a.get("points").get(1).get(1).isNull)
    assert(a.get("points").get(2).get(1).asDouble() == 3.0)
    assert(a.get("points").get(0).get(0).asText().startsWith("2020-01-01"))
  }

  test("writeAll produces parseable files for a real mining run") {
    val ds = SmartCityData.covid19(spark)
    import org.apache.spark.sql.functions._
    val slice = ds.data.where(col("time") < lit("2020-02-01")) // keep it fast
    val params = CapParams(etaKm = 10.0, psi = 10, mu = 4, maxSensors = 3)
    val mined = Miscela.mine(spark, slice, ds.locations, params).collect().toSeq
    val dir = Files.createTempDirectory("viz-spec").toString
    val files = JsonExport.writeAll(dir, mined, ds.locations, slice)
    assert(files.exists(_.endsWith("caps.json")))
    assert(files.exists(_.endsWith("sensors.geojson")))
    files.foreach { f =>
      val tree = mapper.readTree(Files.readAllBytes(Paths.get(f)))
      assert(tree != null, s"unparseable: $f")
    }
    val capsTree = mapper.readTree(Files.readAllBytes(Paths.get(dir, "caps.json")))
    assert(capsTree.size() > 0, "expected CAPs in the covid slice")
    val geo = mapper.readTree(Files.readAllBytes(Paths.get(dir, "sensors.geojson")))
    assert(geo.get("features").size() == 12)
  }

  private def sha256(path: java.nio.file.Path): String =
    MessageDigest.getInstance("SHA-256").digest(Files.readAllBytes(path)).map("%02x".format(_)).mkString

  /** Runs `body` with the session time zone set to `zone`. */
  private def inZone[T](zone: String)(body: => T): T = {
    val key = "spark.sql.session.timeZone"
    val before = spark.conf.get(key)
    spark.conf.set(key, zone)
    try body finally spark.conf.set(key, before)
  }

  /** Runs `body` with the session time zone set to UTC, so formatted
    * times do not depend on the machine's zone.
    */
  private def inUtc[T](body: => T): T = inZone("UTC")(body)

  test("writeAll's payload bytes are pinned for the Santander sf=0.05 request") {
    val digests = inUtc {
      val ds = SmartCityData.santander(spark, 0.05)
      val data = ds.data.persist()
      try {
        val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 50, maxSensors = 4)
        val mined = Miscela.mine(spark, data, ds.locations, params).collect().toSeq
        val dir = Files.createTempDirectory("viz-pinned")
        JsonExport.writeAll(dir.toString, mined, ds.locations, data)
        Seq("caps.json", "sensors.geojson", "series-0.json", "series-1.json", "series-2.json")
          .map(f => f -> sha256(dir.resolve(f))).toMap
      } finally data.unpersist()
    }
    assert(digests == Map(
      "caps.json" -> "cea63b211c6c79ea9fb8f7382a56aedb43cc535bef153d94ecd4d0c6269588bd",
      "sensors.geojson" -> "ebf01681eda46d3989a4e6aa3ebf803422aa5db6075d14071a4bf02e20335f08",
      "series-0.json" -> "65a0e6d783e36f50969c7aee1a4cc0171aaf9ec818034ee0dc0d35174b2fbfc7",
      "series-1.json" -> "a8849a45696bfdd93e91de2e09840c3dd5b86a64fe7f2c05cf81ca4899ebf384",
      "series-2.json" -> "196443f0aa98c36d7b50cbb570c1206a29786e52eb6f155c42a8aa964b9bc625",
    ))
  }

  test("on persisted frames a repeated miss runs 1 Spark job and a hit 1, with the unpersisted payloads") {
    inUtc {
      val ds = SmartCityData.santander(spark, 0.05)
      val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 50, maxSensors = 4)
      val otherEpsilon = params.copy(epsilon = 2.0)
      def request(cache: CapCache): (Boolean, Map[String, String]) = {
        val (caps, hit) = cache.getOrCompute(spark, ds.name, params) {
          Miscela.mine(spark, ds.data, ds.locations, params)
        }
        val dir = Files.createTempDirectory("viz-persisted")
        JsonExport.writeAll(dir.toString, caps, ds.locations, ds.data)
        val files = Seq("caps.json", "sensors.geojson", "series-0.json", "series-1.json", "series-2.json")
        (hit, files.map(f => f -> sha256(dir.resolve(f))).toMap)
      }
      def store() = new CapCache(Files.createTempDirectory("viz-store").toString)
      // Before persisting: another frame over the same plan would find the
      // same cache entry.
      val (_, unpersisted) = request(store())
      val unpersistedOtherEpsilon = Miscela.mine(spark, ds.data, ds.locations, otherEpsilon)
      ds.data.persist()
      ds.locations.persist()
      try {
        request(store())
        val cache = store()
        val ((caps, hit), mining) = observe("repeated-miss") {
          cache.getOrCompute(spark, ds.name, params)(Miscela.mine(spark, ds.data, ds.locations, params))
        }
        assert(!hit && mining.jobs.isEmpty, s"${mining.jobs.size} Spark jobs to mine")
        val dir = Files.createTempDirectory("viz-persisted")
        val (_, writing) = observe("repeated-miss-export")(JsonExport.writeAll(dir.toString, caps, ds.locations, ds.data))
        assert(writing.jobs.size == 1, s"${writing.jobs.size} Spark jobs in writeAll (the series fetch)")
        assert(unpersisted.forall { case (f, digest) => sha256(dir.resolve(f)) == digest })
        // A miss under another epsilon runs the stage 1-2 kernel again, over
        // the kept shuffle.
        val ((otherCaps, otherHit), retuned) = observe("epsilon-miss") {
          cache.getOrCompute(spark, ds.name, otherEpsilon)(Miscela.mine(spark, ds.data, ds.locations, otherEpsilon))
        }
        assert(!otherHit && retuned.jobs.size == 1, s"${retuned.jobs.size} Spark jobs to mine (the kernel)")
        val resultStages = retuned.jobs.map(_.stageIds.max)
        val shuffleMaps = retuned.stages.filterNot(s => resultStages.contains(s.stageId))
        assert(shuffleMaps.isEmpty, s"shuffle map stages run: ${shuffleMaps.map(_.name)}")
        assert(otherCaps == unpersistedOtherEpsilon)
        val ((hitAgain, payloads), served) = observe("hit")(request(cache))
        assert(hitAgain && served.jobs.size == 1, s"${served.jobs.size} Spark jobs on a hit (the series fetch)")
        assert(payloads == unpersisted)
      } finally {
        ds.data.unpersist()
        ds.locations.unpersist()
      }
    }
  }

  /** Half-hourly readings of every name in [[CapTableSpec.trickyNames]]
    * from 2020-11-01 00:00 UTC, with step 3 absent for every sensor (a hole
    * in the grid) and every fourth reading null. In America/New_York the
    * clocks fall back at 06:00 UTC, so 05:00 and 06:00 UTC both read 01:00,
    * 05:30 and 06:30 UTC both read 01:30, and text order is not time order.
    * The rows arrive shuffled over 3 input partitions.
    */
  private def fallBackFrame(): DataFrame = {
    val start = java.time.Instant.parse("2020-11-01T00:00:00Z")
    val rows = for {
      (id, s) <- CapTableSpec.trickyNames.zipWithIndex
      t <- 0 until 24 if t != 3
    } yield Row(id, "light", java.sql.Timestamp.from(start.plusSeconds(1800L * t)),
      if ((t + s) % 4 == 0) null else Double.box(s * 10.0 + t * 0.5))
    val schema = StructType.fromDDL("id STRING, attribute STRING, time TIMESTAMP, data DOUBLE")
    val data = spark.createDataFrame(spark.sparkContext.parallelize(new Random(11).shuffle(rows), 3), schema)
    val partitionsPerSensor = data.select(col("id"), spark_partition_id().as("p")).distinct()
      .groupBy("id").count().collect().map(_.getLong(1))
    assert(partitionsPerSensor.length == CapTableSpec.trickyNames.length && partitionsPerSensor.forall(_ == 3))
    data
  }

  private def fallBackLocations(): DataFrame =
    TinyWorld.locDf(spark, CapTableSpec.trickyNames.map(id => (id, "light", 43.46, -3.80)))

  /** Top 3 CAPs over the tricky names, by support: unsorted sensors and one
    * without readings, a repeated sensor, every name. A fourth CAP is not
    * in the top 3.
    */
  private val fallBackCaps = {
    val names = CapTableSpec.trickyNames
    Seq(
      Cap(Seq("light"), Seq(names(7), names(0), "absent", names(5)), 9),
      Cap(Seq("light"), Seq(names(1), names(20), names(1)), 8),
      Cap(Seq("light"), names, 7),
      Cap(Seq("light"), Seq(names(3)), 1),
    )
  }

  /** Writes `caps`' payloads and checks each series file against the
    * DataFrame query in the session's current zone; returns the files.
    */
  private def seriesMatchQuery(caps: Seq[Cap], locs: DataFrame, data: DataFrame): Map[String, Seq[Byte]] = {
    val dir = Files.createTempDirectory("viz-series-query")
    JsonExport.writeAll(dir.toString, caps, locs, data)
    val got = payloads(dir)
    caps.sortBy(-_.support).take(3).zipWithIndex.foreach { case (cap, i) =>
      assert(got(s"series-$i.json") == TreeExport.seriesJson(data, cap).toSeq,
        s"series-$i.json in ${spark.conf.get("spark.sql.session.timeZone")}")
    }
    got
  }

  test("series files are the bytes of the DataFrame query, in UTC and across a New York fall-back") {
    val (data, locs) = (fallBackFrame(), fallBackLocations())
    val newYork = inZone("America/New_York")(seriesMatchQuery(fallBackCaps, locs, data))
    val utc = inUtc(seriesMatchQuery(fallBackCaps, locs, data))
    val points = mapper.readTree(newYork("series-2.json").toArray).get(1).get("points")
    val times = (0 until points.size()).map(points.get(_).get(0).asText())
    assert(times.count(_ == "2020-11-01 01:00:00") == 2 && times.count(_ == "2020-11-01 01:30:00") == 2)
    assert(times.length == 23 && times == times.sorted && newYork != utc)
  }

  test("a persisted frame's series follow a change of session time zone between calls") {
    val (data, locs) = (fallBackFrame(), fallBackLocations())
    data.persist()
    try {
      val utc = inUtc(seriesMatchQuery(fallBackCaps, locs, data))
      val newYork = inZone("America/New_York")(seriesMatchQuery(fallBackCaps, locs, data))
      assert(newYork("series-0.json") != utc("series-0.json"))
      assert(inUtc(seriesMatchQuery(fallBackCaps, locs, data)) == utc)
    } finally data.unpersist()
  }

  test("on persisted frames writeAll runs one job, one task per partition holding a top CAP's sensor") {
    val (data, locs) = (fallBackFrame(), fallBackLocations())
    val partitioner = new HashPartitioner(spark.sparkContext.defaultParallelism)
    val names = CapTableSpec.trickyNames
    val (same, other) = names.partition(partitioner.getPartition(_) == partitioner.getPartition(names(0)))
    val caps = Seq(
      Cap(Seq("light"), same.take(2), 3),
      Cap(Seq("light"), other.take(1) :+ "absent", 2),
      Cap(Seq("light"), same.take(1), 1),
    )
    val partitions = caps.flatMap(_.sensors).distinct.map(partitioner.getPartition).distinct.size
    data.persist()
    locs.persist()
    try {
      inUtc {
        // The first call shuffles the readings and collects the registry.
        JsonExport.writeAll(Files.createTempDirectory("viz-shape").toString, caps, locs, data)
        val dir = Files.createTempDirectory("viz-shape")
        val (_, run) = observe("series-read")(JsonExport.writeAll(dir.toString, caps, locs, data))
        assert(run.jobs.size == 1, s"${run.jobs.size} Spark jobs")
        val (results, shuffleMaps) = run.stages.partition(_.stageId == run.jobs.head.stageIds.max)
        assert(shuffleMaps.isEmpty, s"shuffle map stages run: ${shuffleMaps.map(_.name)}")
        assert(results.map(_.numTasks) == Seq(partitions) && run.tasks.size == partitions,
          s"tasks ${results.map(_.numTasks)} for $partitions partitions")
        caps.zipWithIndex.foreach { case (cap, i) =>
          assert(Files.readAllBytes(dir.resolve(s"series-$i.json")).toSeq == TreeExport.seriesJson(data, cap).toSeq)
        }
      }
    } finally {
      data.unpersist()
      locs.unpersist()
    }
  }

  test("on frames that are not persisted writeAll shuffles the readings once: 2 jobs, 1 shuffle map stage") {
    val (data, locs) = (fallBackFrame(), fallBackLocations())
    inUtc {
      val dir = Files.createTempDirectory("viz-unpersisted")
      val (_, run) = observe("unpersisted-export")(JsonExport.writeAll(dir.toString, fallBackCaps, locs, data))
      assert(run.jobs.size == 2, s"${run.jobs.size} Spark jobs (the grid job and the series read)")
      val resultStages = run.jobs.map(_.stageIds.max)
      val shuffleMaps = run.stages.filterNot(s => resultStages.contains(s.stageId))
      assert(shuffleMaps.size == 1, s"shuffle map stages run: ${shuffleMaps.map(_.name)}")
      fallBackCaps.take(3).zipWithIndex.foreach { case (cap, i) =>
        assert(Files.readAllBytes(dir.resolve(s"series-$i.json")).toSeq == TreeExport.seriesJson(data, cap).toSeq)
      }
    }
  }

  /** The live threads that `writeAll` names. */
  private def writerThreads(): Set[String] =
    Thread.getAllStackTraces.keySet.asScala.filter(t => t.getName.startsWith("json-") && t.isAlive).map(_.getName).toSet

  test("a failing series read is rethrown once every writer thread has ended, with the earlier payloads kept") {
    val (data, locs) = (fallBackFrame(), fallBackLocations())
    val failing = data.withColumn("data",
      when(col("id") === lit(fallBackCaps.head.sensors.head), raise_error(lit("no readings today")))
        .otherwise(col("data")))
    val dir = Files.createTempDirectory("viz-failure")
    inUtc {
      JsonExport.writeAll(dir.toString, fallBackCaps, locs, data)
      assert(writerThreads().isEmpty, "writer threads alive after a call")
      val earlier = payloads(dir)
      assert(earlier.size == 5)
      // Two top CAPs: had the call gone through, caps.json would differ and
      // series-2.json would be gone.
      val e = intercept[Exception](JsonExport.writeAll(dir.toString, fallBackCaps.take(2), locs, failing))
      // The series read's own exception, not a wrapper of it.
      val read = intercept[Exception](Miscela.series(failing, fallBackCaps.head.sensors)(identity))
      assert(e.getClass == read.getClass && e.getMessage == read.getMessage && e.getMessage.contains("no readings today"),
        e.toString)
      assert(writerThreads().isEmpty, "writer threads alive after a failing call")
      assert(payloads(dir) == earlier)
    }
  }

  test("writeAll with no CAPs runs no Spark job and deletes the series files of an earlier run") {
    val (data, locs) = (fallBackFrame(), fallBackLocations())
    val dir = Files.createTempDirectory("viz-no-caps")
    JsonExport.writeAll(dir.toString, fallBackCaps, locs, data)
    assert(payloads(dir).keySet.count(_.startsWith("series-")) == 3)
    val (written, run) = observe("no-caps")(JsonExport.writeAll(dir.toString, Nil, locs, data))
    assert(run.jobs.isEmpty, s"${run.jobs.size} Spark jobs")
    assert(payloads(dir).keySet == Set("caps.json", "sensors.geojson") && written.size == 2)
    assert(new String(Files.readAllBytes(dir.resolve("caps.json")), UTF_8) == "[]")
  }

  test("writeAll gives a sensor with a null coordinate a null geometry") {
    import spark.implicits._
    val locs = Seq[(String, String, Option[Double], Option[Double])](
      ("a", "temperature", Some(43.46), Some(-3.80)),
      ("b", "trafficVolume", None, Some(-3.81)),
      ("c", "light", Some(43.48), None),
    ).toDF("id", "attribute", "lat", "lon")
    val data = TinyWorld.dataDf(spark, Map(
      ("a", "temperature") -> Seq(Some(1.0), Some(2.0)),
      ("b", "trafficVolume") -> Seq(Some(3.0), Some(4.0)),
    ))
    val dir = Files.createTempDirectory("viz-null-coord")
    JsonExport.writeAll(dir.toString, caps, locs, data)
    val features = mapper.readTree(Files.readAllBytes(dir.resolve("sensors.geojson"))).get("features")
    assert(features.size() == 3)
    assert(features.get(0).get("geometry").get("type").asText() == "Point")
    assert(features.get(1).get("geometry").isNull)
    assert(features.get(2).get("geometry").isNull)
    assert(features.get(1).get("properties").get("id").asText() == "b")
    assert(features.get(1).get("properties").get("caps").size() == 2)
  }

  test("series points come out in time order and features in id order when rows arrive shuffled") {
    import spark.implicits._
    val inOrder = TinyWorld.dataDf(spark, Map(
      ("b", "temperature") -> (1 to 30).map(i => Some(i.toDouble)),
      ("a", "trafficVolume") -> (1 to 30).map(i => Some(-i.toDouble)),
    ))
    val series = inOrder.collect().toSeq
    val shuffled = new scala.util.Random(7).shuffle(series)
    val newestFirst = series.sortBy(_.getTimestamp(2).getTime).reverse
    // U+FB01 sorts before U+1F600 in UTF-8 but after it in UTF-16.
    val ids = Seq("b", "\uD83D\uDE00", "a", "\uFB01", "A")
    val locs = new scala.util.Random(3).shuffle(ids).map(id => (id, "light", 43.0, -3.0)).toDF("id", "attribute", "lat", "lon")
    val cap = Cap(Seq("temperature", "trafficVolume"), Seq("a", "b"), 30)
    for (rows <- Seq(shuffled, newestFirst)) {
      val data = spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), inOrder.schema)
      val dir = Files.createTempDirectory("viz-order")
      JsonExport.writeAll(dir.toString, Seq(cap), locs, data)
      val tree = mapper.readTree(Files.readAllBytes(dir.resolve("series-0.json")))
      assert((0 until tree.size()).map(tree.get(_).get("sensor").asText()) == Seq("a", "b"))
      (0 until 2).foreach { s =>
        val times = (0 until 30).map(tree.get(s).get("points").get(_).get(0).asText())
        assert(times == times.sorted && times.distinct.size == 30)
      }
      assert(tree.get(0).get("points").get(0).get(1).asDouble() == -1.0)
      val features = mapper.readTree(Files.readAllBytes(dir.resolve("sensors.geojson"))).get("features")
      assert((0 until features.size()).map(features.get(_).get("properties").get("id").asText()) ==
        Seq("A", "a", "b", "\uFB01", "\uD83D\uDE00"))
    }
  }

  test("seriesJson of each top CAP equals its slice of writeAll's series") {
    val data = TinyWorld.dataDf(spark, Map(
      ("a", "temperature") -> Seq(Some(1.0), None, Some(3.0)),
      ("b", "trafficVolume") -> Seq(Some(10.0), Some(20.0), Some(30.0)),
      ("c", "light") -> Seq(Some(5.0), Some(6.0), Some(7.0)),
    ))
    val locs = TinyWorld.locDf(spark, Seq(("a", "temperature", 43.46, -3.80)))
    val all = caps :+ Cap(Seq("light", "trafficVolume"), Seq("b", "c"), 42) :+ Cap(Seq("light"), Seq("c"), 1)
    val dir = Files.createTempDirectory("viz-series")
    val files = JsonExport.writeAll(dir.toString, all, locs, data)
    assert(files.count(_.contains("series-")) == 3)
    // Top 3 by support; equal supports keep the shared CAP order.
    val top = Seq(all(2), all(0), all(1))
    top.zipWithIndex.foreach { case (c, i) =>
      assert(new String(Files.readAllBytes(dir.resolve(s"series-$i.json")), "UTF-8") ==
        JsonExport.seriesJson(data, c).render)
    }
  }

  /** `n` random CAPs over sensor ids that stress the export order, and a
    * location for every name they use and some they do not: some with a
    * null coordinate, some with integral coordinates.
    */
  private def randomRequest(rnd: Random, n: Int): (Seq[Cap], DataFrame) = {
    import spark.implicits._
    val caps = CapTableSpec.randomCaps(rnd, n, CapTableSpec.trickyNames)
    val ids = CapTableSpec.trickyNames ++ Seq("unused", "z\"q\\\n")
    def coordinate(scale: Double): Option[Double] = rnd.nextInt(6) match {
      case 0 => None
      case 1 => Some(math.rint(rnd.nextDouble() * scale))
      case _ => Some((rnd.nextDouble() * 2 - 1) * scale)
    }
    val locs = rnd.shuffle(ids).map(id => (id, s"attr-${rnd.nextInt(3)}", coordinate(90), coordinate(180)))
      .toDF("id", "attribute", "lat", "lon")
    (caps, locs)
  }

  private def payloads(dir: Path): Map[String, Seq[Byte]] = {
    val list = Files.list(dir)
    try list.toArray.toSeq.map(_.asInstanceOf[Path])
      .map(p => p.getFileName.toString -> Files.readAllBytes(p).toSeq).toMap
    finally list.close()
  }

  test("property: caps.json and sensors.geojson are the bytes the tree writer renders") {
    val data = TinyWorld.dataDf(spark, Map(("s1", "PM2.5") -> Seq(Some(1.0), None, Some(2.5))))
    val rnd = new Random(21)
    Seq(0, 1, 2, 40, 700, 2000).foreach { n =>
      val (caps, locs) = randomRequest(rnd, n)
      // Distinct CAPs whose lists join to the same strings keep their input
      // order in the tree writer's sort, so it gets them in table order.
      val inTableOrder = CapTable(rnd.shuffle(caps)).toSeq
      val (wantCaps, wantGeo) =
        (TreeExport.capsJson(inTableOrder).toSeq, TreeExport.sensorsGeoJson(locs, inTableOrder).toSeq)
      val dir = Files.createTempDirectory("viz-bytes")
      JsonExport.writeAll(dir.toString, caps, locs, data)
      val got = payloads(dir)
      assert(got("caps.json") == wantCaps, s"$n CAPs")
      assert(got("sensors.geojson") == wantGeo, s"$n CAPs")
      assert(JsonExport.capsJson(caps).render.getBytes(UTF_8).toSeq == wantCaps)
      assert(JsonExport.sensorsGeoJson(locs, caps).render.getBytes(UTF_8).toSeq == wantGeo)
    }
  }

  test("a CAP list that arrives unsorted exports the same bytes") {
    val data = TinyWorld.dataDf(spark, Map(
      ("s1", "PM2.5") -> Seq(Some(1.0), None, Some(2.5)),
      ("a", "NO2") -> Seq(Some(4.0), Some(5.0), None),
    ))
    val rnd = new Random(5)
    val (caps, locs) = randomRequest(rnd, 500)
    val Seq(sorted, shuffled) = Seq(caps.sortBy(_.toString), rnd.shuffle(caps)).map { list =>
      val dir = Files.createTempDirectory("viz-unsorted")
      JsonExport.writeAll(dir.toString, list, locs, data)
      payloads(dir)
    }
    assert(sorted.keySet == Set("caps.json", "sensors.geojson", "series-0.json", "series-1.json", "series-2.json"))
    assert(shuffled == sorted)
  }

  test("writeAll deletes the series files of an earlier run with more top CAPs") {
    val data = TinyWorld.dataDf(spark, Map(("a", "temperature") -> Seq(Some(1.0), Some(2.0))))
    val locs = TinyWorld.locDf(spark, Seq(("a", "temperature", 43.46, -3.80)))
    val dir = Files.createTempDirectory("viz-stale")
    val three = caps :+ Cap(Seq("light"), Seq("c"), 1)
    JsonExport.writeAll(dir.toString, three, locs, data)
    assert(payloads(dir).keySet.count(_.startsWith("series-")) == 3)
    val written = JsonExport.writeAll(dir.toString, Seq(caps.head), locs, data)
    assert(payloads(dir).keySet == Set("caps.json", "sensors.geojson", "series-0.json"))
    assert(written.map(Paths.get(_).getFileName.toString) == Seq("caps.json", "sensors.geojson", "series-0.json"))
  }
}
