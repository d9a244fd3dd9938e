package repro.geo

import scala.util.Random

import org.apache.spark.sql.functions.{col, round, udf}

import repro.{Oracle, SparkSpec}

class HaversineSpec extends SparkSpec {

  test("zero distance between identical points") {
    assert(Haversine.km(43.46, -3.80, 43.46, -3.80) == 0.0)
  }

  test("one degree of latitude is ~111.2 km") {
    val d = Haversine.km(0.0, 0.0, 1.0, 0.0)
    assert(math.abs(d - 111.2) < 0.5, s"got $d")
  }

  test("one degree of longitude at 60N is ~55.6 km (cos factor)") {
    val d = Haversine.km(60.0, 0.0, 60.0, 1.0)
    assert(math.abs(d - 55.6) < 0.5, s"got $d")
  }

  test("Shanghai to Guangzhou is ~1200 km") {
    val d = Haversine.km(31.23, 121.47, 23.13, 113.26)
    assert(d > 1100 && d < 1300, s"got $d")
  }

  test("Santander city block is a few hundred metres") {
    val d = Haversine.km(43.46192, -3.80176, 43.46212, -3.79979)
    assert(d > 0.1 && d < 0.3, s"got $d")
  }

  test("antipodal points are ~half the circumference") {
    val d = Haversine.km(0.0, 0.0, 0.0, 180.0)
    assert(math.abs(d - math.Pi * Haversine.EarthRadiusKm) < 1.0, s"got $d")
  }

  private def randPt(r: Random): (Double, Double) = (r.nextDouble() * 170 - 85, r.nextDouble() * 360 - 180)

  for (seed <- 1 to 5) {
    test(s"property: symmetric, non-negative, bounded (seed $seed)") {
      val r = new Random(seed)
      (1 to 200).foreach { _ =>
        val (a, b) = randPt(r); val (c, d) = randPt(r)
        val x = Haversine.km(a, b, c, d)
        assert(math.abs(x - Haversine.km(c, d, a, b)) < 1e-9)
        assert(x >= 0 && x <= math.Pi * Haversine.EarthRadiusKm + 1e-6)
      }
    }

    test(s"property: triangle inequality via a third point (seed $seed)") {
      val r = new Random(seed + 100)
      (1 to 200).foreach { _ =>
        val (a, b) = randPt(r); val (c, d) = randPt(r); val (e, f) = randPt(r)
        assert(Haversine.km(a, b, e, f) <= Haversine.km(a, b, c, d) + Haversine.km(c, d, e, f) + 1e-9)
      }
    }
  }

  test("oracle: haversine UDF agrees with the formula spelled out in DuckDB SQL") {
    import spark.implicits._
    val haversineKm = udf((a: Double, b: Double, c: Double, d: Double) => Haversine.km(a, b, c, d))
    val pts = Seq(
      ("p1", 43.46, -3.80, 43.47, -3.81),
      ("p2", 31.23, 121.47, 23.13, 113.26),
      ("p3", 20.0, 80.0, 23.5, 80.0),
      ("p4", -10.0, 100.0, -10.0, 101.0),
    ).toDF("name", "lat1", "lon1", "lat2", "lon2")
    val d = haversineKm(col("lat1"), col("lon1"), col("lat2"), col("lon2"))
    val sparkDf = pts.select(col("name"), round(d, 4).as("d"))
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT name,
        |  round(2 * 6371.0088 * asin(least(1.0, sqrt(
        |    pow(sin(radians(CAST(lat2 AS DOUBLE) - CAST(lat1 AS DOUBLE)) / 2), 2) +
        |    cos(radians(CAST(lat1 AS DOUBLE))) * cos(radians(CAST(lat2 AS DOUBLE))) *
        |    pow(sin(radians(CAST(lon2 AS DOUBLE) - CAST(lon1 AS DOUBLE)) / 2), 2)
        |  ))), 4) AS d
        |FROM pts""".stripMargin,
      "pts" -> pts,
    )
  }
}
