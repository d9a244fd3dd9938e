package repro.viz

import java.nio.file.{Files, Path, Paths}

import scala.collection.Searching.Found

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.util.{DateTimeUtils, LegacyDateFormats, TimestampFormatter}
import org.apache.spark.sql.internal.SQLConf

import repro.core.{Cap, CapTable, GridSeries, Miscela}

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
  * The CAPs are taken as a [[CapTable]], which is already in export order
  * (any other `Seq[Cap]` is sorted into one first). The CAP list and the
  * GeoJSON are written straight from its columns to bytes: each name is
  * quoted once, and ids and supports are written from its int and long
  * arrays. [[writeAll]] shares the table between the CAP ids, the GeoJSON
  * back-references and the top-3 pick.
  *
  * The series of all three top CAPs come from one Spark job,
  * [[Miscela.series]], which reads the stage 1–2 shuffle of `data` and
  * runs one task per shuffled partition holding a wanted sensor. Each
  * sensor arrives as primitive arrays of grid indices, values and presence
  * flags, and is written to bytes too: the grid times are formatted once
  * per call in the session time zone, as `date_format` formats them.
  *
  * The GeoJSON takes its sensors from [[Miscela.registry]], the collected
  * registry that stage 3 reads too. For a persisted `locations` frame it is
  * collected once, and for a persisted `data` frame the shuffle is kept, so
  * on persisted frames a [[writeAll]] after [[Miscela.mine]] (or after a
  * cache hit that follows one) runs one Spark job, the series read, and no
  * shuffle map stage.
  */
object JsonExport {

  /** CAP list payload. CAP ids are their position in export order (see
    * [[CapTable]]).
    */
  def capsJson(caps: Seq[Cap]): JValue = rendered(writeCaps(_, CapTable(caps)))

  /** GeoJSON FeatureCollection of all sensors; each feature lists the CAP
    * ids (per [[capsJson]] numbering) containing that sensor so the front
    * end can highlight correlated sensors. A sensor with a null coordinate
    * gets a null geometry (RFC 7946 §3.2).
    */
  def sensorsGeoJson(locations: DataFrame, caps: Seq[Cap]): JValue =
    rendered(writeSensors(_, locations, CapTable(caps)))

  /** Time-series payload for one CAP: per sensor of the CAP that has
    * readings, in id order, the (time, value) pairs (nulls preserved — the
    * chart shows gaps), times as `yyyy-MM-dd HH:mm:ss` in the session time
    * zone, ordered by that text, then by time. The bytes are those of
    * [[writeAll]]'s series files, from the same writer.
    */
  def seriesJson(data: DataFrame, cap: Cap): JValue = rendered(seriesWriters(data, Seq(cap)).head)

  /** Writes the three payloads of a mining run's CAPs under `dir`; series
    * is emitted for the top 3 CAPs by support, and a series file that an
    * earlier run with more top CAPs left in `dir` is deleted. Returns the
    * paths written.
    */
  def writeAll(dir: String, caps: Seq[Cap], locations: DataFrame, data: DataFrame): Seq[String] = {
    val base = Paths.get(dir)
    Files.createDirectories(base)
    val table = CapTable(caps)
    val written = Seq(
      write(base.resolve("caps.json"))(writeCaps(_, table)),
      write(base.resolve("sensors.geojson"))(writeSensors(_, locations, table)),
    )
    val tops = seriesWriters(data, topBySupport(table.support, TopSeries).map(table(_))).zipWithIndex.map {
      case (body, i) => write(base.resolve(s"series-$i.json"))(body)
    }
    (tops.length until TopSeries).foreach(i => Files.deleteIfExists(base.resolve(s"series-$i.json")))
    written ++ tops
  }

  private val TopSeries = 3

  /** `[{"capId":i,"attributes":[…],"sensors":[…],"support":s},…]`, the
    * bytes a tree of `JObj`s would render to.
    */
  private def writeCaps(out: JsonOut, caps: CapTable): Unit = {
    val quoted = caps.names.map(Json.quoted)
    def names(from: Int, until: Int): Unit = {
      out.byte('[')
      var k = from
      while (k < until) {
        if (k > from) out.byte(',')
        out.bytes(quoted(caps.members(k)))
        k += 1
      }
      out.byte(']')
    }
    out.byte('[')
    var i = 0
    while (i < caps.length) {
      if (i > 0) out.byte(',')
      out.ascii("{\"capId\":").long(i).ascii(",\"attributes\":")
      names(caps.bounds(2 * i), caps.bounds(2 * i + 1))
      out.ascii(",\"sensors\":")
      names(caps.bounds(2 * i + 1), caps.bounds(2 * i + 2))
      out.ascii(",\"support\":").num(caps.support(i).toDouble).byte('}')
      i += 1
    }
    out.byte(']')
  }

  /** The GeoJSON FeatureCollection, features in id order, each feature's
    * `caps` read off the table's sensor columns.
    */
  private def writeSensors(out: JsonOut, locations: DataFrame, caps: CapTable): Unit = {
    // The ids of the CAPs holding name m as a sensor, ascending, are
    // capIds(first(m) until first(m + 1)).
    val first = new Array[Int](caps.names.length + 1)
    def sensorsOf(i: Int): Range = caps.bounds(2 * i + 1) until caps.bounds(2 * i + 2)
    caps.indices.foreach(i => sensorsOf(i).foreach(k => first(caps.members(k) + 1) += 1))
    (1 until first.length).foreach(m => first(m) += first(m - 1))
    val capIds = new Array[Int](first.last)
    val next = first.clone()
    caps.indices.foreach(i => sensorsOf(i).foreach { k =>
      capIds(next(caps.members(k))) = i
      next(caps.members(k)) += 1
    })

    out.ascii("{\"type\":\"FeatureCollection\",\"features\":[")
    Miscela.registry(locations).zipWithIndex.foreach { case (l, f) =>
      if (f > 0) out.byte(',')
      out.ascii("{\"type\":\"Feature\",\"geometry\":")
      // GeoJSON is (lon, lat)
      (l.lat, l.lon) match {
        case (Some(lat), Some(lon)) =>
          out.ascii("{\"type\":\"Point\",\"coordinates\":[").num(lon).byte(',').num(lat).ascii("]}")
        case _ => out.ascii("null")
      }
      out.ascii(",\"properties\":{\"id\":").str(l.id).ascii(",\"attribute\":").str(l.attribute)
      out.ascii(",\"caps\":[")
      caps.names.search(l.id) match {
        case Found(m) =>
          (first(m) until first(m + 1)).foreach { k =>
            if (k > first(m)) out.byte(',')
            out.long(capIds(k))
          }
        case _ =>
      }
      out.ascii("]}}")
    }
    out.ascii("]}")
  }

  /** Writers of the series payloads of `caps`, in order, fed by one Spark
    * job over the union of their sensors ([[Miscela.series]]). Each grid
    * time is formatted and quoted once, as `date_format(time, "yyyy-MM-dd
    * HH:mm:ss")` formats it in the session time zone, and a sensor's points
    * are put in the order of that text, then of time: one primitive sort
    * per sensor of (rank of its grid index in that order, reading
    * position). With no CAPs, [[Miscela.series]] runs no job.
    */
  private def seriesWriters(data: DataFrame, caps: Seq[Cap]): Seq[JsonOut => Unit] = {
    val (grid, fetched) = Miscela.series(data, caps.flatMap(_.sensors).distinct)
    val zone = DateTimeUtils.getZoneId(data.sparkSession.conf.get(SQLConf.SESSION_LOCAL_TIMEZONE.key))
    val formatter = TimestampFormatter("yyyy-MM-dd HH:mm:ss", zone, LegacyDateFormats.SIMPLE_DATE_FORMAT,
      isParsing = false)
    val texts = grid.map(formatter.format)
    val quoted = texts.map(Json.quoted)
    // Grid indices are in time order, so a stable sort by text leaves
    // equal texts (a repeated hour as clocks fall back) in time order.
    val rank = new Array[Int](grid.length)
    grid.indices.sortBy(texts(_)).zipWithIndex.foreach { case (t, r) => rank(t) = r }
    def points(out: JsonOut, s: GridSeries): Unit = {
      val order = Array.tabulate(s.t.length)(j => rank(s.t(j)).toLong << 32 | j)
      java.util.Arrays.sort(order)
      var k = 0
      while (k < order.length) {
        val j = order(k).toInt
        if (k > 0) out.byte(',')
        out.byte('[').bytes(quoted(s.t(j))).byte(',')
        if (s.present(j)) out.num(s.values(j)) else out.ascii("null")
        out.byte(']')
        k += 1
      }
    }
    caps.map(cap => (out: JsonOut) => {
      out.byte('[')
      cap.sensors.filter(fetched.contains).sorted.zipWithIndex.foreach { case (id, i) =>
        if (i > 0) out.byte(',')
        out.ascii("{\"sensor\":").str(id).ascii(",\"points\":[")
        points(out, fetched(id))
        out.ascii("]}")
      }
      out.byte(']')
    })
  }

  /** The indices of the `k` CAPs of highest support, earlier first among
    * equal supports (what a stable sort by descending support would pick).
    */
  private def topBySupport(support: Array[Long], k: Int): Seq[Int] =
    support.indices.foldLeft(Vector.empty[Int]) { (top, i) =>
      if (top.size == k && support(top.last) >= support(i)) top
      else {
        val (ahead, behind) = top.span(support(_) >= support(i))
        ((ahead :+ i) ++ behind).take(k)
      }
    }

  /** A payload as a pre-rendered [[JValue]]. */
  private def rendered(body: JsonOut => Unit): JValue = {
    val out = new JsonOut
    body(out)
    JRaw(out.text)
  }

  private def write(path: Path)(body: JsonOut => Unit): String = {
    val out = new JsonOut
    body(out)
    out.writeTo(path)
    path.toString
  }
}
