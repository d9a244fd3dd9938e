package repro.viz

import java.nio.file.{Files, Path, Paths, StandardCopyOption}
import java.time.ZoneId
import java.util.concurrent.ThreadLocalRandom

import scala.collection.Searching.Found
import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.util.{DateTimeUtils, LegacyDateFormats, TimestampFormatter}
import org.apache.spark.sql.internal.SQLConf

import repro.core.{Cap, CapTable, ForkJoin, GridSeries, Miscela}

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
  * per call in the session time zone, as `date_format` formats them, while
  * the job runs, and each sensor's points are rendered once per call,
  * however many top CAPs list it, the sensors dealt to the tasks of one
  * [[ForkJoin]].
  *
  * [[writeAll]] writes the payloads at once, as the three tasks of one
  * [[ForkJoin]]: the series job runs while `caps.json` and the GeoJSON are
  * written. Each payload streams to a staging file through a buffer of
  * fixed size ([[JsonOut.open]]), so no payload is held whole in memory,
  * and the staging files are renamed over the payloads only once every
  * writer has succeeded.
  *
  * The GeoJSON takes its sensors from [[Miscela.registry]], the collected
  * registry that stage 3 reads too. For a persisted `locations` frame it is
  * collected once, and for a persisted `data` frame the shuffle is kept, so
  * on persisted frames a [[writeAll]] after [[Miscela.mine]] (or after a
  * cache hit that follows one) runs one Spark job, the series read, and no
  * shuffle map stage. On a `data` frame that is not persisted it runs two,
  * the grid job and the series read, over one shuffle.
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
  def seriesJson(data: DataFrame, cap: Cap): JValue = rendered(seriesWriters(data, Seq(cap))(()).head)

  /** Writes the three payloads of a mining run's CAPs under `dir`; series
    * is emitted for the top 3 CAPs by support, and a series file that an
    * earlier run with more top CAPs left in `dir` is deleted. Returns the
    * paths written.
    *
    * The payloads are written at once, as the tasks of one [[ForkJoin]]:
    * the series read and the series files on the calling thread (see
    * [[seriesWriters]]), `caps.json` and `sensors.geojson` on their own.
    * Each streams to a staging file in `dir`, and the series files are
    * opened while the series job runs; the staging files are renamed over
    * the payloads only if every task succeeds. So a failure or an
    * interrupt leaves every payload of an earlier run as it was, and
    * surfaces by [[ForkJoin]]'s rule.
    */
  def writeAll(dir: String, caps: Seq[Cap], locations: DataFrame, data: DataFrame): Seq[String] = {
    val base = Paths.get(dir)
    Files.createDirectories(base)
    val table = CapTable(caps)
    val tops = topBySupport(table.support, TopSeries).map(table(_))
    val names = Seq("caps.json", "sensors.geojson") ++ tops.indices.map(i => s"series-$i.json")
    val tag = java.lang.Long.toHexString(ThreadLocalRandom.current().nextLong())
    val staged = names.map(name => base.resolve(s".$name.$tag.staging"))
    try {
      ForkJoin("json-payload", Seq(
        () => writeSeries(data, tops, staged.drop(2)),
        () => JsonOut.write(staged(0))(writeCaps(_, table)),
        () => JsonOut.write(staged(1))(writeSensors(_, locations, table)),
      ))
      // rename(2), which replaces an existing payload in one step.
      staged.zip(names).foreach { case (from, name) => Files.move(from, base.resolve(name), StandardCopyOption.ATOMIC_MOVE) }
    } finally staged.foreach(Files.deleteIfExists) // only after a failure is one still there
    (tops.length until TopSeries).foreach(i => Files.deleteIfExists(base.resolve(s"series-$i.json")))
    names.map(base.resolve(_).toString)
  }

  private val TopSeries = 3

  /** `[{"capId":i,"attributes":[…],"sensors":[…],"support":s},…]`, with
    * the fields in that order and no whitespace.
    */
  private def writeCaps(out: JsonOut, caps: CapTable): Unit = {
    val quoted = caps.names.map(JsonOut.quoted)
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

  /** Writes the series payloads of `caps` to new files `paths`, in order,
    * opening the files while the series job runs.
    */
  private def writeSeries(data: DataFrame, caps: Seq[Cap], paths: Seq[Path]): Unit = {
    val files = mutable.ArrayBuffer.empty[JsonOut]
    try {
      seriesWriters(data, caps)(paths.foreach(p => files += JsonOut.open(p))).zip(files).foreach { case (body, out) =>
        body(out)
        out.flush()
      }
    } finally files.foreach(_.close())
  }

  /** Writers of the series payloads of `caps`, in order, fed by one Spark
    * job over the union of their sensors ([[Miscela.series]]). While the
    * job runs, `meanwhile` runs, and each grid time is formatted and quoted
    * once, as `date_format(time, "yyyy-MM-dd HH:mm:ss")` formats it in the
    * session time zone, and ranked by that text. Then each sensor that has
    * readings gets its points rendered once, however many of `caps` list
    * it, dealt to min(defaultParallelism, sensors) tasks of one
    * [[ForkJoin]] (threads `json-points-j`, this one among them);
    * the writers splice those bytes. A sensor's points are put in the
    * order of their text, then of time: one primitive sort per sensor of
    * (rank of its grid index, reading position). With no CAPs,
    * [[Miscela.series]] runs no job.
    */
  private def seriesWriters(data: DataFrame, caps: Seq[Cap])(meanwhile: => Unit): Seq[JsonOut => Unit] = {
    val zone = DateTimeUtils.getZoneId(data.sparkSession.conf.get(SQLConf.SESSION_LOCAL_TIMEZONE.key))
    val ((quoted, rank), fetched) = Miscela.series(data, caps.flatMap(_.sensors).distinct) { grid =>
      meanwhile
      timeTexts(zone, grid)
    }
    def points(s: GridSeries): Array[Byte] = {
      val out = new JsonOut
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
      out.toBytes
    }
    val sensors = fetched.toIndexedSeq
    val shares = ForkJoin.deal(sensors.length, data.sparkSession.sparkContext.defaultParallelism)
    val pointsOf = ForkJoin("json-points", shares.map { share =>
      () => share.map(i => sensors(i)._1 -> points(sensors(i)._2))
    }).flatten.toMap
    caps.map(cap => (out: JsonOut) => {
      out.byte('[')
      cap.sensors.filter(pointsOf.contains).sorted.zipWithIndex.foreach { case (id, i) =>
        if (i > 0) out.byte(',')
        out.ascii("{\"sensor\":").str(id).ascii(",\"points\":[").bytes(pointsOf(id)).ascii("]}")
      }
      out.byte(']')
    })
  }

  /** Each time of `grid` formatted in `zone` and quoted, and the rank of
    * each time in the order of those texts. Grid indices are in time
    * order, so a stable sort by text leaves equal texts (a repeated hour as
    * clocks fall back) in time order.
    */
  private def timeTexts(zone: ZoneId, grid: Array[Long]): (Array[Array[Byte]], Array[Int]) = {
    val formatter = TimestampFormatter("yyyy-MM-dd HH:mm:ss", zone, LegacyDateFormats.SIMPLE_DATE_FORMAT,
      isParsing = false)
    val texts = grid.map(formatter.format)
    val rank = new Array[Int](grid.length)
    grid.indices.sortBy(texts(_)).zipWithIndex.foreach { case (t, r) => rank(t) = r }
    (texts.map(JsonOut.quoted), rank)
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

  /** A payload's text, written in memory. */
  private def rendered(body: JsonOut => Unit): JValue = {
    val out = new JsonOut
    body(out)
    new JValue(out.text)
  }
}
