package repro.viz

import java.nio.file.{Files, Paths}
import java.security.MessageDigest

import com.fasterxml.jackson.databind.ObjectMapper

import repro.SparkSpec
import repro.core.{Cap, CapParams, Miscela}
import repro.core.TinyWorld
import repro.data.SmartCityData

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

  /** Runs `body` with the session time zone set to UTC, so formatted
    * times do not depend on the machine's zone.
    */
  private def inUtc[T](body: => T): T = {
    val key = "spark.sql.session.timeZone"
    val before = spark.conf.get(key)
    spark.conf.set(key, "UTC")
    try body finally spark.conf.set(key, before)
  }

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
}
