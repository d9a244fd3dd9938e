package repro.viz

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.{Dataset, DataFrame}
import org.apache.spark.sql.functions._

import repro.core.Cap

/** The Spark-side boundary of MISCELA-V's visualization (Section 3):
  * CAP results, sensor locations, and time series are serialized to JSON
  * payloads that the (out-of-Spark) front end renders — "MISCELA returns a
  * set of sets of sensors as CAPs … its format is JSON".
  *
  * Three payloads:
  *  - [[capsJson]] — the CAP list (attribute set, sensor set, support);
  *  - [[sensorsGeoJson]] — a GeoJSON FeatureCollection of sensor points
  *    for the map layer, each feature carrying the ids of the CAPs it
  *    participates in (the map highlights correlated sensors on click);
  *  - [[seriesJson]] — the measurement series of one CAP's sensors for the
  *    temporal chart (Figure 3 C/D).
  */
object JsonExport {

  /** CAP list payload. CAP ids are their position in the (deterministic)
    * sorted order.
    */
  def capsJson(caps: Seq[Cap]): JValue =
    JArr(sortedCaps(caps).zipWithIndex.map { case (c, i) =>
      Json.obj(
        "capId" -> JNum(i.toDouble),
        "attributes" -> JArr(c.attributes.map(JStr(_))),
        "sensors" -> JArr(c.sensors.map(JStr(_))),
        "support" -> JNum(c.support.toDouble),
      )
    })

  /** GeoJSON FeatureCollection of all sensors; each feature lists the CAP
    * ids (per [[capsJson]] numbering) containing that sensor so the front
    * end can highlight correlated sensors.
    */
  def sensorsGeoJson(locations: DataFrame, caps: Seq[Cap]): JValue = {
    val byId = sortedCaps(caps).zipWithIndex
      .flatMap { case (c, i) => c.sensors.map(_ -> i) }
      .groupBy(_._1)
      .view.mapValues(_.map(_._2).sorted).toMap
    val features = locations
      .select(col("id").cast("string"), col("attribute").cast("string"),
        col("lat").cast("double"), col("lon").cast("double"))
      .orderBy("id")
      .collect()
      .map { r =>
        val id = r.getString(0)
        Json.obj(
          "type" -> JStr("Feature"),
          "geometry" -> Json.obj(
            "type" -> JStr("Point"),
            // GeoJSON is (lon, lat)
            "coordinates" -> Json.arr(JNum(r.getDouble(3)), JNum(r.getDouble(2))),
          ),
          "properties" -> Json.obj(
            "id" -> JStr(id),
            "attribute" -> JStr(r.getString(1)),
            "caps" -> JArr(byId.getOrElse(id, Nil).map(i => JNum(i.toDouble))),
          ),
        )
      }
    Json.obj("type" -> JStr("FeatureCollection"), "features" -> JArr(features.toIndexedSeq))
  }

  /** Time-series payload for one CAP: per sensor, the (time, value) pairs
    * (nulls preserved — the chart shows gaps).
    */
  def seriesJson(data: DataFrame, cap: Cap): JValue = {
    val rows = data
      .where(col("id").isin(cap.sensors: _*))
      .select(col("id").cast("string"),
        date_format(col("time"), "yyyy-MM-dd HH:mm:ss").as("t"),
        col("data").cast("double"))
      .orderBy("id", "t")
      .collect()
    val bySensor = rows.groupBy(_.getString(0)).toSeq.sortBy(_._1)
    JArr(bySensor.map { case (id, rs) =>
      Json.obj(
        "sensor" -> JStr(id),
        "points" -> JArr(rs.toIndexedSeq.map { r =>
          Json.arr(JStr(r.getString(1)), if (r.isNullAt(2)) JNull else JNum(r.getDouble(2)))
        }),
      )
    })
  }

  /** Writes the three payloads of a mining run under `dir`; series is
    * emitted for the top 3 CAPs by support. Returns the file paths written.
    */
  def writeAll(dir: String, caps: Dataset[Cap], locations: DataFrame, data: DataFrame): Seq[String] = {
    val base = Paths.get(dir)
    Files.createDirectories(base)
    val capSeq = caps.collect().toSeq
    val written = Seq(
      write(base.resolve("caps.json").toString, capsJson(capSeq)),
      write(base.resolve("sensors.geojson").toString, sensorsGeoJson(locations, capSeq)),
    )
    val tops = sortedCaps(capSeq).sortBy(-_.support).take(3).zipWithIndex.map { case (c, i) =>
      write(base.resolve(s"series-$i.json").toString, seriesJson(data, c))
    }
    written ++ tops
  }

  private def sortedCaps(caps: Seq[Cap]): Seq[Cap] =
    caps.sortBy(c => (c.attributes.mkString(","), c.sensors.mkString(","), c.support))

  private def write(path: String, v: JValue): String = {
    Files.write(Paths.get(path), v.render.getBytes(StandardCharsets.UTF_8))
    path
  }
}
