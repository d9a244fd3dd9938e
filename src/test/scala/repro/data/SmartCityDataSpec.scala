package repro.data

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.CapParams
import repro.core.TinyWorld.evolving

class SmartCityDataSpec extends SparkSpec {

  // ------------------------------------------------------------------
  // Pure helpers
  // ------------------------------------------------------------------
  test("recordCounts sums exactly to the target") {
    for ((target, n) <- Seq((2329936L, 552), (6889740L, 9438), (3511300L, 4810), (52261L, 12), (100L, 7))) {
      val counts = SmartCityData.recordCounts(target, n)
      assert(counts.length == n)
      assert(counts.map(_.toLong).sum == target, s"target=$target n=$n")
      assert(counts.max - counts.min <= 1, "counts differ by at most one")
    }
  }

  test("paper totals split into the expected base counts") {
    assert(SmartCityData.recordCounts(2329936L, 552).count(_ == 4221) == 496)
    assert(SmartCityData.recordCounts(6889740L, 9438).forall(_ == 730))
    assert(SmartCityData.recordCounts(3511300L, 4810).forall(_ == 730))
    assert(SmartCityData.recordCounts(52261L, 12).count(_ == 4356) == 1)
  }

  test("scaledSensors and scaledRecords shrink proportionally") {
    assert(SmartCityData.scaledSensors(552, 1.0, 5) == 552)
    assert(SmartCityData.scaledSensors(552, 0.1, 5) == 55)
    assert(SmartCityData.scaledSensors(552, 0.0001, 5) == 5)
    assert(SmartCityData.scaledRecords(2329936L, 552, 552) == 2329936L)
    val r55 = SmartCityData.scaledRecords(2329936L, 552, 55)
    assert(math.abs(r55 - 2329936L * 55.0 / 552).toDouble <= 1.0)
  }

  // ------------------------------------------------------------------
  // Generated datasets (small sf for speed; sf=1 totals are checked by
  // the T1 bench).
  // ------------------------------------------------------------------
  private lazy val tinySantander = SmartCityData.santander(spark, 0.02) // 11 sensors

  test("santander schema and attribute domain") {
    val ds = tinySantander
    assert(ds.data.columns.toSeq == Seq("id", "attribute", "time", "data"))
    assert(ds.locations.columns.toSeq == Seq("id", "attribute", "lat", "lon"))
    val attrs = ds.data.select("attribute").distinct().collect().map(_.getString(0)).toSet
    assert(attrs.subsetOf(SmartCityData.SantanderAttrs.toSet))
  }

  test("record count scales with the sensor count") {
    val ds = tinySantander
    val n = ds.locations.count().toInt
    assert(ds.data.count() == SmartCityData.scaledRecords(2329936L, 552, n))
  }

  test("generation is deterministic") {
    val a = SmartCityData.santander(spark, 0.01).data
      .orderBy("id", "time").collect().map(_.toString).toSeq
    val b = SmartCityData.santander(spark, 0.01).data
      .orderBy("id", "time").collect().map(_.toString).toSeq
    assert(a == b)
  }

  test("null rate is close to the configured 2%") {
    val ds = tinySantander
    val total = ds.data.count().toDouble
    val nulls = ds.data.where(col("data").isNull).count().toDouble
    assert(math.abs(nulls / total - SmartCityData.PNull) < 0.01, s"null rate ${nulls / total}")
  }

  test("every data record's sensor exists in locations with matching attribute") {
    val ds = tinySantander
    val orphans = ds.data.select("id", "attribute").distinct()
      .join(ds.locations, Seq("id", "attribute"), "left_anti").count()
    assert(orphans == 0)
  }

  test("timestamps form one hourly grid") {
    val times = tinySantander.data.select("time").distinct()
      .orderBy("time").collect().map(_.getTimestamp(0).getTime)
    val gaps = times.sliding(2).map { case Array(a, b) => b - a }.toSet
    assert(gaps == Set(3600L * 1000))
  }

  test("santander co-located attribute factors plant temperature-traffic co-evolution") {
    val ds = tinySantander
    val byId = evolving(spark, ds.data, ds.locations, CapParams(epsilon = 1.0))
    val ids = ds.locations.collect().map(r => (r.getString(0), r.getString(1)))
    val temp = ids.find(_._2 == "temperature").get._1
    val traffic = ids.find(_._2 == "trafficVolume").get._1
    val humidity = ids.find(_._2 == "humidity").get._1
    val common = byId(temp).intersect(byId(traffic))
    assert(common.size > 50, s"planted co-evolution too weak: ${common.size}")
    // Humidity is noise-only: no events at all at epsilon=1.
    assert(!byId.contains(humidity))
  }

  test("china6 city layout: same-row cities share corridor factors") {
    val ds = SmartCityData.china6(spark, 0.004) // ~38 sensors, 4 cities
    val events = evolving(spark, ds.data, ds.locations, CapParams(epsilon = 1.0))
    val locs = ds.locations.collect().map(r => (r.getString(0), r.getDouble(2))) // id, lat
    def rowOf(lat: Double) = math.round((lat - 20.0) / 3.5)
    val byRow = locs.groupBy(l => rowOf(l._2))
    assert(byRow.size == 2, s"expected 2 rows, got ${byRow.keySet}")
    val r0 = byRow(0L).map(_._1).filter(events.contains)
    val r1 = byRow(1L).map(_._1).filter(events.contains)
    assert(r0.nonEmpty && r1.nonEmpty)
    // Same row: large overlap; cross row: only chance-level overlap.
    val sameRow = events(r0.head).intersect(events(r0.last))
    val crossRow = events(r0.head).intersect(events(r1.head))
    assert(sameRow.size > 20, s"same-row overlap ${sameRow.size}")
    assert(crossRow.size < sameRow.size / 4, s"cross-row overlap ${crossRow.size} vs ${sameRow.size}")
  }

  test("china13 adds the meteorological attributes") {
    val ds = SmartCityData.china13(spark, 0.003) // ~14 sensors, 2 cities
    val attrs = ds.locations.select("attribute").distinct().collect().map(_.getString(0)).toSet
    assert(attrs.subsetOf(SmartCityData.China13Attrs.toSet))
    assert(attrs.contains("daylight") || attrs.contains("temperature"))
    assert(ds.attributes.size == 12)
  }

  test("covid19 has exactly 12 sensors in two cities and 52261 records") {
    val ds = SmartCityData.covid19(spark)
    assert(ds.locations.count() == 12)
    assert(ds.data.count() == 52261L)
    val lats = ds.locations.select("lat").collect().map(_.getDouble(0))
    assert(lats.count(_ > 28) == 6 && lats.count(_ < 28) == 6) // Shanghai vs Guangzhou
  }

  test("covid19 regime change: traffic-coupled attributes stop co-evolving after the switch") {
    val ds = SmartCityData.covid19(spark)
    val events = evolving(spark, ds.data, ds.locations, CapParams(epsilon = 1.0))
      .view.mapValues(_.map(_._1)).toMap
    val ids = ds.locations.collect().map(r => (r.getString(0), r.getString(1), r.getDouble(2)))
    val shanghai = ids.filter(_._3 > 28)
    val no2 = shanghai.find(_._2 == "NO2").get._1
    val co = shanghai.find(_._2 == "CO").get._1
    val o3 = shanghai.find(_._2 == "O3").get._1
    val pm25 = shanghai.find(_._2 == "PM2.5").get._1
    val half = SmartCityData.CovidRegimeSwitchT
    def beforeAfter(a: String, b: String): (Int, Int) = {
      val common = events.getOrElse(a, Set.empty).intersect(events.getOrElse(b, Set.empty))
      (common.count(_ < half), common.count(_ >= half))
    }
    val (no2coBefore, no2coAfter) = beforeAfter(no2, co)
    assert(no2coBefore > 30 && no2coAfter < 5, s"NO2-CO $no2coBefore/$no2coAfter")
    val (pmO3Before, pmO3After) = beforeAfter(pm25, o3)
    assert(pmO3After > 30 && pmO3Before < 5, s"PM2.5-O3 $pmO3Before/$pmO3After")
  }

  test("byName resolves all four datasets and rejects unknowns") {
    Seq("santander", "china6", "china13", "covid19").foreach { name =>
      assert(SmartCityData.byName(spark, name, 0.002).name == name)
    }
    intercept[IllegalArgumentException] { SmartCityData.byName(spark, "nope", 1.0) }
  }
}
