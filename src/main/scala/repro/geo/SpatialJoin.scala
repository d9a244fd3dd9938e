package repro.geo

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** η-proximity pairs over sensor locations (MISCELA step 3 input).
  *
  * Sensors number in the thousands at most, so the join runs on the
  * driver ([[pairs]]). A naive all-pairs scan is O(n²); instead sensors
  * are bucketed into a grid of η-sized cells and only sensors in the same
  * or adjacent cells are compared, then filtered by exact haversine
  * distance. Cell sizes come from the haversine formula itself, so no
  * pair within η km can span more than one cell boundary: latitude cells
  * are η/R radians high, and longitude cells are sized for the data's
  * largest |latitude|, where longitude degrees are shortest. The
  * longitude cells split the full circle evenly and wrap at ±180°, so
  * sensors on both sides of the antimeridian are neighbours.
  *
  * Input: `locations` with columns (id, lat, lon); rows without both
  * coordinates have no edges. Output: undirected edge list
  * (src, dst, dist_km) with src < dst lexicographically and dist_km < η.
  * Sensors at identical coordinates but different ids (the paper models
  * one attribute per sensor, co-located sensors are distinct) yield
  * dist 0 edges.
  */
object SpatialJoin {

  /** Proximity edges: all unordered pairs of distinct ids closer than `etaKm`. */
  def edges(spark: SparkSession, locations: DataFrame, etaKm: Double): DataFrame = {
    import spark.implicits._
    val sites = locations
      .where(col("lat").isNotNull && col("lon").isNotNull)
      .select(col("id").cast("string"), col("lat").cast("double"), col("lon").cast("double"))
      .as[(String, Double, Double)]
      .collect()
      .toSeq
    pairs(sites, etaKm).toDF("src", "dst", "dist_km")
  }

  /** The join over (id, lat, lon) sites: (src, dst, dist_km) for every
    * pair of distinct ids closer than `etaKm`, each pair once.
    */
  def pairs(sites: Seq[(String, Double, Double)], etaKm: Double): Seq[(String, String, Double)] = {
    require(etaKm > 0, s"etaKm must be positive, got $etaKm")
    if (sites.isEmpty) return Nil
    // A pair within η differs by at most η/R radians of latitude, and by
    // at most 2·asin(sin(η/2R) / cos φ) of longitude at |latitude| ≤ φ.
    val halfAngle = math.min(etaKm / (2 * Haversine.EarthRadiusKm), math.Pi / 2)
    val latCellDeg = math.toDegrees(2 * halfAngle)
    val maxAbsLat = sites.iterator.map(s => math.abs(s._2)).max
    val lonSin = math.sin(halfAngle) / math.cos(math.toRadians(maxAbsLat))
    val lonCellDeg = if (lonSin < 1) math.toDegrees(2 * math.asin(lonSin)) else 360.0
    // n cells of 360/n ≥ lonCellDeg degrees each, numbered modulo n.
    val nLon = math.max(1L, math.floor(360 / lonCellDeg).toLong)

    def cell(s: (String, Double, Double)): (Long, Long) = {
      val x = math.floor((s._3 + 180) / 360 * nLon).toLong
      (math.floorMod(x, nLon), math.floor(s._2 / latCellDeg).toLong)
    }
    val byCell = sites.groupBy(cell)

    (for {
      a <- sites
      (cx, cy) = cell(a)
      dx <- -1 to 1
      dy <- -1 to 1
      b <- byCell.getOrElse((math.floorMod(cx + dx, nLon), cy + dy), Nil)
      if a._1 < b._1
      dist = Haversine.km(a._2, a._3, b._2, b._3)
      if dist < etaKm
    } yield (a._1, b._1, dist)).distinct // a sensor listed twice, or nLon ≤ 2, pairs twice
  }
}
