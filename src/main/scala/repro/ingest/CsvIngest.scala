package repro.ingest

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.TimeIndex
import repro.data.SmartCityDataset

/** Reads the paper's upload format (Section 3.2): `data.csv`,
  * `location.csv`, `attribute.csv` under one directory. With `validate`, it
  * rejects an upload that breaks an invariant the MISCELA-V back end relies
  * on, checked (and raised) in this order:
  *
  *  1. every attribute of `data.csv` is listed in `attribute.csv`;
  *  1. every (id, attribute) of `data.csv` is registered in `location.csv`;
  *  1. every `location.csv` row has an id and an attribute;
  *  1. every coordinate is null or a number on the globe: lat in [−90, 90],
  *     lon in [−180, 180];
  *  1. `location.csv` lists each id once (a sensor measures one attribute);
  *  1. every timestamp parses;
  *  1. every reading is a finite number or null: NaN, ±Infinity and text
  *     that is no number are rejected;
  *  1. each (id, time) is listed once in `data.csv`;
  *  1. timestamps lie on one synchronized grid (equal intervals, to the
  *     microsecond), as the paper requires ("timestamps must be the same
  *     time intervals").
  *
  * `location.csv` is the sensor registry, one row per sensor, so it is
  * collected and checked on the driver. `data.csv` is read twice: one
  * aggregate counts every other fault, and the distinct timestamps come
  * back for the grid check. `data`, `lat` and `lon` values equal to the
  * literal string "null" (or empty) become SQL nulls.
  */
object CsvIngest {

  final case class ValidationError(message: String) extends RuntimeException(message)

  /** Reads one dataset directory (dataCsv/locationCsv/attributeCsv paths). */
  def read(
      spark: SparkSession,
      name: String,
      dataCsv: String,
      locationCsv: String,
      attributeCsv: String,
      validate: Boolean = true,
  ): SmartCityDataset = {
    import spark.implicits._
    // A value spelled "null" or left empty has no text; text that is no
    // number parses to null instead of failing the scan under ANSI mode,
    // and validation counts it.
    def text(c: String) = when(lower(col(c)) =!= "null", col(c))
    def number(c: String) = text(c).try_cast("double")
    def unparseable(c: String) = text(c).isNotNull && number(c).isNull
    // try_to_timestamp: unparseable timestamps become null (then fail
    // validation) instead of throwing mid-scan under ANSI mode.
    val (time, reading) = (expr("try_to_timestamp(time)"), number("data"))
    val csv = spark.read.option("header", "true").csv(dataCsv)
    val rawData = csv.select(col("id"), col("attribute"), time.as("time"), reading.as("data"))
    val rawLocations = spark.read.option("header", "true").csv(locationCsv)
    val locations = rawLocations.select(col("id"), col("attribute"), number("lat").as("lat"), number("lon").as("lon"))
    val attributes = spark.read.schema("attribute STRING").csv(attributeCsv).collect().map(_.getString(0)).toSeq

    if (validate) {
      val registry = rawLocations
        .select(col("id"), col("attribute"), number("lat"), number("lon"), unparseable("lat") || unparseable("lon"))
        .collect()

      // One pass over data.csv: counts per (id, attribute, time), then per
      // (id, attribute), joined to the listed attributes and the registered
      // pairs; a null key matches neither, and `struct` keeps a null
      // attribute as one value. A non-finite reading breaks the evolving
      // test (|v(t) − v(t−1)| > ε); two readings at one (id, time) leave
      // segmentation a zero-length step. Repeats are counted per pair, which
      // equals per id once the checks before theirs have passed.
      val listed = attributes.distinct.map((_, true)).toDF("attribute", "listed")
      val registered = registry.map(r => (r.getString(0), r.getString(1), true)).distinct.toSeq
        .toDF("id", "attribute", "registered")
      def total(c: String) = coalesce(sum(c), lit(0L))
      val counts = csv
        .groupBy(col("id"), col("attribute"), time.as("time"))
        .agg(
          count(lit(1)).as("n"),
          count(when(unparseable("data") || isnan(reading) || abs(reading) === Double.PositiveInfinity, 1)).as("bad"),
        )
        .groupBy("id", "attribute")
        .agg(
          sum(when(col("time").isNull, col("n"))).as("badTime"),
          sum("bad").as("badData"),
          sum(when(col("time").isNotNull, col("n") - 1)).as("repeated"),
        )
        .join(broadcast(listed), Seq("attribute"), "left")
        .join(broadcast(registered), Seq("id", "attribute"), "left")
        .agg(
          size(collect_set(when(col("listed").isNull, struct(col("attribute"))))).cast("long"),
          count(when(col("registered").isNull, 1)),
          total("badTime"), total("badData"), total("repeated"),
        )
        .collect()(0)
      val Seq(unknownAttr, unknownSensor, badTime, nonFinite, repeated) = (0 until 5).map(counts.getLong)

      // location.csv is checked here. NaN and ±Infinity fall outside both
      // ranges; a null coordinate is no violation (that sensor simply has
      // no place in the η-graph). Mining compares and groups sensors by id,
      // so a row without an id or attribute, or an id listed twice (which
      // would merge two series), is rejected.
      def offGlobe(r: Row, i: Int, bound: Double) = !r.isNullAt(i) && !(math.abs(r.getDouble(i)) <= bound)
      val ids = registry.filterNot(_.isNullAt(0)).map(_.getString(0))
      Seq[(Long, String)](
        unknownAttr -> "attribute(s) in data.csv missing from attribute.csv",
        unknownSensor -> "sensor(s) in data.csv missing from location.csv",
        registry.count(r => r.isNullAt(0) || r.isNullAt(1)).toLong -> "location(s) without a sensor id or attribute",
        registry.count(r => r.getBoolean(4) || offGlobe(r, 2, 90) || offGlobe(r, 3, 180)).toLong ->
          ("location(s) with an unparseable or impossible coordinate " +
            "(not a number, NaN, ±Infinity, lat outside [-90, 90] or lon outside [-180, 180])"),
        (ids.length - ids.distinct.length).toLong -> "location(s) repeat the sensor id of another",
        badTime -> "record(s) with unparseable timestamps",
        nonFinite -> "record(s) with a non-finite reading (NaN or ±Infinity)",
        repeated -> "record(s) repeat the (id, time) of another",
      ).find(_._1 > 0).foreach { case (n, what) => throw ValidationError(s"$n $what") }

      // One synchronized grid: distinct inter-timestamp gaps must be equal,
      // on the grid of microseconds that mining uses.
      val gaps = TimeIndex.grid(rawData).sliding(2).collect { case Array(a, b) => b - a }.toSet
      if (gaps.size > 1)
        throw ValidationError(s"timestamps are not on one equal-interval grid: gaps=$gaps")
    }

    SmartCityDataset(name, rawData, locations, attributes)
  }
}
