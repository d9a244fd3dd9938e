package repro.viz

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.types.UTF8String

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
  *
  * [[writeAll]] takes the CAPs as a plain driver-side sequence and does
  * each piece of work once: it sorts the CAPs one time and shares that
  * order between the CAP ids, the GeoJSON back-references and the top-3
  * pick, and it fetches the series of all three top CAPs with one Spark
  * job.
  */
object JsonExport {

  /** CAP list payload. CAP ids are their position in the (deterministic)
    * sorted order.
    */
  def capsJson(caps: Seq[Cap]): JValue = capsJsonOf(sortedCaps(caps))

  /** GeoJSON FeatureCollection of all sensors; each feature lists the CAP
    * ids (per [[capsJson]] numbering) containing that sensor so the front
    * end can highlight correlated sensors. A sensor with a null coordinate
    * gets a null geometry (RFC 7946 §3.2).
    */
  def sensorsGeoJson(locations: DataFrame, caps: Seq[Cap]): JValue =
    sensorsGeoJsonOf(locations, sortedCaps(caps))

  /** Time-series payload for one CAP: per sensor, the (time, value) pairs
    * (nulls preserved — the chart shows gaps).
    */
  def seriesJson(data: DataFrame, cap: Cap): JValue = seriesJsons(data, Seq(cap)).head

  /** Writes the three payloads of a mining run's CAPs under `dir`; series
    * is emitted for the top 3 CAPs by support. Returns the paths written.
    */
  def writeAll(dir: String, caps: Seq[Cap], locations: DataFrame, data: DataFrame): Seq[String] = {
    val base = Paths.get(dir)
    Files.createDirectories(base)
    val sorted = sortedCaps(caps)
    val written = Seq(
      write(base.resolve("caps.json"), capsJsonOf(sorted)),
      write(base.resolve("sensors.geojson"), sensorsGeoJsonOf(locations, sorted)),
    )
    val tops = seriesJsons(data, topBySupport(sorted, 3)).zipWithIndex.map { case (v, i) =>
      write(base.resolve(s"series-$i.json"), v)
    }
    written ++ tops
  }

  private def capsJsonOf(sorted: IndexedSeq[Cap]): JValue =
    JArr(sorted.zipWithIndex.map { case (c, i) =>
      Json.obj(
        "capId" -> JNum(i.toDouble),
        "attributes" -> JArr(c.attributes.map(JStr(_))),
        "sensors" -> JArr(c.sensors.map(JStr(_))),
        "support" -> JNum(c.support.toDouble),
      )
    })

  private def sensorsGeoJsonOf(locations: DataFrame, sorted: IndexedSeq[Cap]): JValue = {
    val capIds = mutable.HashMap.empty[String, mutable.ArrayBuffer[JValue]]
    sorted.indices.foreach { i =>
      sorted(i).sensors.foreach(s => capIds.getOrElseUpdate(s, mutable.ArrayBuffer.empty) += JNum(i.toDouble))
    }
    val rows = locations
      .select(col("id").cast("string"), col("attribute").cast("string"),
        col("lat").cast("double"), col("lon").cast("double"))
      .collect()
    // Ids in Spark's string order: by UTF-8 bytes, i.e. by code point.
    val inIdOrder = rows.map(r => (UTF8String.fromString(r.getString(0)), r))
      .sortWith((a, b) => a._1.compareTo(b._1) < 0)
    val features = inIdOrder.toIndexedSeq.map { case (_, r) =>
      val id = r.getString(0)
      Json.obj(
        "type" -> JStr("Feature"),
        "geometry" ->
          (if (r.isNullAt(2) || r.isNullAt(3)) JNull
           else Json.obj(
             "type" -> JStr("Point"),
             // GeoJSON is (lon, lat)
             "coordinates" -> Json.arr(JNum(r.getDouble(3)), JNum(r.getDouble(2))),
           )),
        "properties" -> Json.obj(
          "id" -> JStr(id),
          "attribute" -> JStr(r.getString(1)),
          "caps" -> JArr(capIds.get(id).fold(Seq.empty[JValue])(_.toSeq)),
        ),
      )
    }
    Json.obj("type" -> JStr("FeatureCollection"), "features" -> JArr(features))
  }

  /** The series payloads of `caps`, in order, from one Spark job over the
    * union of their sensors. Times are formatted in Spark, so the session
    * time zone applies; each sensor's points are put in time order here.
    */
  private def seriesJsons(data: DataFrame, caps: Seq[Cap]): Seq[JValue] =
    if (caps.isEmpty) Nil
    else {
      val rows = data
        .where(col("id").isin(caps.flatMap(_.sensors).distinct: _*))
        .select(col("id").cast("string"),
          date_format(col("time"), "yyyy-MM-dd HH:mm:ss").as("t"),
          col("data").cast("double"))
        .collect()
      val bySensor = rows.groupBy(_.getString(0)).view.mapValues(_.sortBy(_.getString(1))).toMap
      caps.map { cap =>
        JArr(cap.sensors.filter(bySensor.contains).sorted.map { id =>
          Json.obj(
            "sensor" -> JStr(id),
            "points" -> JArr(bySensor(id).toIndexedSeq.map { r =>
              Json.arr(JStr(r.getString(1)), if (r.isNullAt(2)) JNull else JNum(r.getDouble(2)))
            }),
          )
        })
      }
    }

  /** CAPs in export order: by attribute list, then sensor list (each joined
    * with ","), then support. Each key is built once per CAP, not once per
    * comparison.
    */
  private def sortedCaps(caps: Seq[Cap]): IndexedSeq[Cap] =
    caps.map(c => ((c.attributes.mkString(","), c.sensors.mkString(","), c.support), c))
      .sortBy(_._1).map(_._2).toIndexedSeq

  /** The `k` CAPs of highest support, earlier in `sorted` first among
    * equal supports (what a stable sort by descending support would pick).
    */
  private def topBySupport(sorted: IndexedSeq[Cap], k: Int): Seq[Cap] =
    sorted.foldLeft(Vector.empty[Cap]) { (top, c) =>
      if (top.size == k && top.last.support >= c.support) top
      else {
        val (ahead, behind) = top.span(_.support >= c.support)
        ((ahead :+ c) ++ behind).take(k)
      }
    }

  private def write(path: Path, v: JValue): String = {
    Files.write(path, v.render.getBytes(StandardCharsets.UTF_8))
    path.toString
  }
}
