package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.core.{Cap, CapParams, Miscela}
import repro.data.{SmartCityData, SmartCityDataset}

/** T5 — the three demonstration case studies (Section 4), reported as
  * tables of discovered CAP attribute patterns.
  *
  *  (a) Santander: "we can find correlated patterns among temperatures and
  *      traffic volumes and among light and temperature";
  *  (b) China: "sensors are not correlated if two sensors are vertically
  *      (north and south) close to each other, but if sensors are
  *      horizontally (east and west) close, they are correlated" — and
  *      "two sensors are correlated even if they are distant";
  *  (c) COVID-19: "our activity changes affect not only the amounts of air
  *      pollutants but also their correlation patterns" (Figure 4).
  */
object T5Cases {

  final case class PatternRow(attributes: String, nCaps: Long, maxSupport: Long)

  /** Groups mined CAPs into attribute patterns with counts. */
  def patterns(caps: Seq[Cap]): Seq[PatternRow] =
    caps.groupBy(_.attributes.mkString("+"))
      .map { case (a, cs) => PatternRow(a, cs.size.toLong, cs.map(_.support).max) }
      .toSeq.sortBy(r => (-r.nCaps, r.attributes))

  def patternTable(caps: Seq[Cap], title: String): String =
    Tables.render(title, Seq("attribute pattern", "#CAPs", "max support"),
      patterns(caps).map(r => Seq(r.attributes, r.nCaps.toString, r.maxSupport.toString)))

  // -------------------------------------------------------------------
  // (a) Santander
  // -------------------------------------------------------------------
  def santanderCaps(spark: SparkSession, sf: Double, params: CapParams): Seq[Cap] = {
    val ds = SmartCityData.santander(spark, sf)
    Miscela.mine(spark, ds.data, ds.locations, params)
  }

  // -------------------------------------------------------------------
  // (b) China: mine, then classify every multi-city CAP by whether its
  // cities lie on one east-west row. Sensors of one city share a lat band.
  // -------------------------------------------------------------------
  final case class ChinaRow(kind: String, nCaps: Long)

  /** Splits CAPs into within-city / same-row multi-city / cross-row
    * multi-city, using the sensor latitudes (rows are ~3.5° apart, cities
    * jitter ~0.03°, so a 1° band is unambiguous).
    */
  def classifyChina(spark: SparkSession, ds: SmartCityDataset, caps: Seq[Cap]): Seq[ChinaRow] = {
    val pos = ds.locations
      .select(col("id").cast("string"), col("lat").cast("double"), col("lon").cast("double"))
      .collect()
      .map(r => r.getString(0) -> (r.getDouble(1), r.getDouble(2)))
      .toMap
    def rowOf(id: String): Long = math.round((pos(id)._1 - 20.0) / 3.5)
    def cityKey(id: String): (Long, Long) =
      (rowOf(id), math.round((pos(id)._2 - 80.0) / 0.5))
    val kinds = caps.map { c =>
      val cities = c.sensors.map(cityKey).distinct
      if (cities.size == 1) "within-city"
      else if (cities.map(_._1).distinct.size == 1) "multi-city same row (east-west)"
      else "multi-city cross row (north-south)"
    }
    val counts = kinds.groupBy(identity).view.mapValues(_.size.toLong).toMap
    Seq("within-city", "multi-city same row (east-west)", "multi-city cross row (north-south)")
      .map(k => ChinaRow(k, counts.getOrElse(k, 0L)))
  }

  def chinaTable(rows: Seq[ChinaRow], title: String): String =
    Tables.render(title, Seq("CAP spatial extent", "#CAPs"),
      rows.map(r => Seq(r.kind, r.nCaps.toString)))

  // -------------------------------------------------------------------
  // (c) COVID-19: mine the first and second halves of the period
  // separately and compare the discovered attribute patterns.
  // -------------------------------------------------------------------
  final case class CovidResult(before: Seq[Cap], after: Seq[Cap])

  def covidBeforeAfter(spark: SparkSession, params: CapParams): CovidResult = {
    val ds = SmartCityData.covid19(spark)
    val split = ds.data
      .select(col("time")).distinct().orderBy("time")
      .collect()(SmartCityData.CovidRegimeSwitchT).getTimestamp(0)
    val before = ds.data.where(col("time") < lit(split))
    val after = ds.data.where(col("time") >= lit(split))
    CovidResult(
      Miscela.mine(spark, before, ds.locations, params),
      Miscela.mine(spark, after, ds.locations, params),
    )
  }
}
