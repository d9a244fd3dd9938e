package repro.core

import java.sql.Timestamp

import org.apache.spark.sql.DataFrame

import repro.SparkSpec

/** Hand-built micro-dataset helpers shared by the core suites. */
object TinyWorld {

  private val epoch = Timestamp.valueOf("2020-01-01 00:00:00").getTime

  /** Timestamp grid: hourly from 2020-01-01. */
  def ts(i: Int): Timestamp = new Timestamp(epoch + i * 3600L * 1000L)

  /** Builds data df (id, attribute, time, data) from per-sensor series. */
  def dataDf(spark: org.apache.spark.sql.SparkSession,
             series: Map[(String, String), Seq[Option[Double]]]): DataFrame = {
    import spark.implicits._
    series.toSeq.flatMap { case ((id, attr), vs) =>
      vs.zipWithIndex.map { case (v, i) => (id, attr, ts(i), v) }
    }.toDF("id", "attribute", "time", "data")
  }

  /** Builds locations df (id, attribute, lat, lon). */
  def locDf(spark: org.apache.spark.sql.SparkSession,
            locs: Seq[(String, String, Double, Double)]): DataFrame = {
    import spark.implicits._
    locs.toDF("id", "attribute", "lat", "lon")
  }

  /** Stages 1–2 as a mining run does them: each located sensor's evolving
    * timestamps (tIdx, sign) under `params` with ψ = 1, read off the
    * plus/minus lists of [[Miscela.assembleComponents]].
    */
  def evolving(spark: org.apache.spark.sql.SparkSession, data: DataFrame, locs: DataFrame,
               params: CapParams): Map[String, Set[(Int, Int)]] =
    Miscela.assembleComponents(data, locs, params.copy(psi = 1))._1.flatMap(_._1)
      .map(s => s.id -> (s.plus.map((_, 1)) ++ s.minus.map((_, -1))).toSet).toMap

  /** A step series: starts at `base`, jumps by the given deltas at the
    * given indices (index i means the value changes between i−1 and i).
    */
  def stepSeries(n: Int, base: Double, jumps: Map[Int, Double]): Seq[Option[Double]] = {
    var v = base
    (0 until n).map { i =>
      v += jumps.getOrElse(i, 0.0)
      Some(v)
    }
  }
}

/** End-to-end smoke: three close sensors, two of which co-evolve. */
class MiscelaSmokeSpec extends SparkSpec {
  import TinyWorld._

  test("mine finds the planted two-attribute pattern and nothing else") {
    val n = 30
    val jumps = Map(5 -> 10.0, 12 -> -10.0, 20 -> 10.0, 25 -> 10.0)
    val data = dataDf(spark, Map(
      ("a", "temperature") -> stepSeries(n, 10.0, jumps),
      ("b", "trafficVolume") -> stepSeries(n, 100.0, jumps),
      ("c", "humidity") -> stepSeries(n, 50.0, Map(7 -> 10.0)),
    ))
    val locs = locDf(spark, Seq(
      ("a", "temperature", 43.4600, -3.8000),
      ("b", "trafficVolume", 43.4610, -3.8000), // ~110 m from a
      ("c", "humidity", 43.4605, -3.8005),
    ))
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 4, maxSensors = 3)
    val caps = Miscela.mine(spark, data, locs, params).collect().toSeq

    assert(caps.nonEmpty, "expected at least one CAP")
    assert(caps.exists(c => c.attributes == Seq("temperature", "trafficVolume") &&
      c.sensors == Seq("a", "b") && c.support == 4))
    // c evolves once (support 1 < ψ) so no pattern may contain it.
    assert(!caps.exists(_.sensors.contains("c")))
  }
}
