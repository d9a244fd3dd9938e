package repro.geo

import scala.util.Random

import org.apache.spark.sql.DataFrame

import repro.SparkSpec

class SpatialJoinSpec extends SparkSpec {

  private def locDf(locs: Seq[(String, Double, Double)]): DataFrame = {
    import spark.implicits._
    locs.toDF("id", "lat", "lon")
  }

  /** Reference implementation: brute-force all-pairs filter. */
  private def brute(locs: Seq[(String, Double, Double)], eta: Double): Set[(String, String)] =
    (for {
      (a, la, lo) <- locs
      (b, lb, lq) <- locs
      if a < b && Haversine.km(la, lo, lb, lq) < eta
    } yield (a, b)).toSet

  private def mined(locs: Seq[(String, Double, Double)], eta: Double): Set[(String, String)] =
    SpatialJoin.edges(spark, locDf(locs), eta)
      .select("src", "dst").collect()
      .map(r => (r.getString(0), r.getString(1))).toSet

  test("two close sensors form one edge; a distant one stays apart") {
    val locs = Seq(("a", 43.4600, -3.8000), ("b", 43.4610, -3.8000), ("c", 43.5600, -3.8000))
    assert(mined(locs, 0.5) == Set(("a", "b")))
  }

  test("edge endpoints are ordered src < dst and deduplicated") {
    val locs = Seq(("b", 43.4600, -3.8000), ("a", 43.4601, -3.8000))
    val edges = SpatialJoin.edges(spark, locDf(locs), 0.5).collect()
    assert(edges.length == 1)
    assert(edges(0).getString(0) == "a" && edges(0).getString(1) == "b")
  }

  test("co-located sensors (distinct ids) get a zero-distance edge") {
    val locs = Seq(("a", 43.46, -3.80), ("b", 43.46, -3.80))
    val edges = SpatialJoin.edges(spark, locDf(locs), 0.1).collect()
    assert(edges.length == 1 && edges(0).getDouble(2) == 0.0)
  }

  test("a sensor never pairs with itself") {
    val locs = Seq(("a", 43.46, -3.80))
    assert(SpatialJoin.edges(spark, locDf(locs), 100.0).isEmpty)
  }

  test("strict inequality: a pair exactly at eta is excluded") {
    // 1 degree of longitude at the equator.
    val d = Haversine.km(0.0, 0.0, 0.0, 1.0)
    val locs = Seq(("a", 0.0, 0.0), ("b", 0.0, 1.0))
    assert(mined(locs, d) == Set.empty)
    assert(mined(locs, d + 0.001) == Set(("a", "b")))
  }

  test("a pair just inside eta is found wherever it falls on the cell grid") {
    // 9.99 km apart along a meridian, but more than 10/111.32 degrees of
    // latitude: cells that narrow would put the two two cells apart.
    val locs = Seq(("a", 8.98310, -3.8), ("b", 9.07295, -3.8))
    assert(mined(locs, 10.0) == Set(("a", "b")))
    // The same along a parallel at 60°N, where the great circle is shorter
    // than the parallel: 18.0° of longitude there is 997.7 km.
    val east = Seq(("a", 60.0, 17.965), ("b", 60.0, 35.965))
    assert(mined(east, 1000.0) == Set(("a", "b")))
  }

  test("country-scale eta connects cities across cell boundaries") {
    val locs = Seq(("a", 20.0, 80.0), ("b", 23.5, 80.0), ("c", 20.0, 80.5))
    val got = mined(locs, 450.0)
    assert(got == brute(locs, 450.0))
    assert(got.contains(("a", "b")) && got.contains(("a", "c")))
  }

  for (seed <- 1 to 6; eta <- Seq(0.3, 2.0, 60.0)) {
    test(s"random city matches brute force (seed $seed, eta $eta km)") {
      val r = new Random(seed * 1000 + eta.toInt)
      val locs = (0 until 40).map { i =>
        (f"s$i%03d", 43.0 + r.nextDouble() * 0.8, -4.0 + r.nextDouble() * 0.8)
      }
      assert(mined(locs, eta) == brute(locs, eta))
    }
  }

  for (seed <- 1 to 3) {
    test(s"random high-latitude cluster matches brute force (seed $seed)") {
      val r = new Random(seed)
      val locs = (0 until 30).map { i =>
        (f"s$i%03d", 64.0 + r.nextDouble() * 0.5, 10.0 + r.nextDouble() * 2.0)
      }
      assert(mined(locs, 5.0) == brute(locs, 5.0))
    }
  }

  test("a pair across the antimeridian is found") {
    // 0.002 degrees of longitude apart at the equator: 0.222 km.
    assert(mined(Seq(("a", 0.0, 179.999), ("b", 0.0, -179.999)), 0.5) == Set(("a", "b")))
  }

  for (seed <- 1 to 3; eta <- Seq(2.0, 5.0)) {
    test(s"random sites around the antimeridian match brute force (seed $seed, eta $eta km)") {
      val r = new Random(seed)
      val locs = (0 until 40).map { i =>
        val side = if (r.nextBoolean()) 1 else -1
        (f"s$i%03d", -17.0 + r.nextDouble() * 0.05, side * (180.0 - r.nextDouble() * 0.05))
      }
      val lonOf = locs.map(l => l._1 -> l._3).toMap
      val want = brute(locs, eta)
      assert(want.exists { case (a, b) => lonOf(a).sign != lonOf(b).sign }, "no pair crosses the line")
      assert(mined(locs, eta) == want)
    }
  }

  test("southern hemisphere / negative coordinates match brute force") {
    val r = new Random(7)
    val locs = (0 until 30).map { i =>
      (f"s$i%03d", -34.0 - r.nextDouble() * 0.5, -58.0 - r.nextDouble() * 0.5)
    }
    assert(mined(locs, 10.0) == brute(locs, 10.0))
  }

  test("reported distances equal the haversine distance") {
    val r = new Random(11)
    val locs = (0 until 15).map(i => (f"s$i%03d", 43.0 + r.nextDouble() * 0.1, -4.0 + r.nextDouble() * 0.1))
    val byId = locs.map(l => l._1 -> l).toMap
    SpatialJoin.edges(spark, locDf(locs), 10.0).collect().foreach { row =>
      val a = byId(row.getString(0)); val b = byId(row.getString(1))
      assert(math.abs(row.getDouble(2) - Haversine.km(a._2, a._3, b._2, b._3)) < 1e-9)
    }
  }

  test("rejects non-positive eta") {
    intercept[IllegalArgumentException] {
      SpatialJoin.edges(spark, locDf(Seq(("a", 0.0, 0.0))), 0.0)
    }
  }
}
