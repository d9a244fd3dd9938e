package repro.viz

import java.nio.file.{Files, Paths}

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
    val mined = Miscela.mine(spark, slice, ds.locations, params)
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
}
