package repro.ingest

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.data.SmartCityDataset

/** Reads the paper's upload format (Section 3.2): `data.csv`,
  * `location.csv`, `attribute.csv` under one directory, validating the
  * cross-file invariants the MISCELA-V back end relies on:
  *
  *  - every (id, attribute) of `data.csv` is registered in `location.csv`,
  *    which lists each id once (a sensor measures one attribute);
  *  - every attribute is listed in `attribute.csv`;
  *  - timestamps lie on one synchronized grid (equal intervals), as the
  *    paper requires ("timestamps must be the same time intervals");
  *  - every reading is finite or null: NaN and ±Infinity are rejected;
  *  - each (id, time) is listed once in `data.csv`;
  *  - every `location.csv` row has an id and an attribute;
  *  - every coordinate is null or a number on the globe: lat in [−90, 90],
  *    lon in [−180, 180].
  *
  * `data`, `lat` and `lon` values equal to the literal string "null" (or
  * empty) become SQL nulls.
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
    val rawData = spark.read
      .option("header", "true")
      .csv(dataCsv)
      .select(
        col("id"),
        col("attribute"),
        // try_to_timestamp: unparseable timestamps become null (then fail
        // validation) instead of throwing mid-scan under ANSI mode.
        expr("try_to_timestamp(time)").as("time"),
        when(lower(col("data")) === "null" || col("data").isNull, lit(null))
          .otherwise(col("data")).cast("double").as("data"),
      )
    // A coordinate spelled "null" or left empty has no text; text that is
    // no number parses to null instead of failing the scan under ANSI mode,
    // and validation counts it.
    def text(c: String) = when(lower(col(c)) =!= "null", col(c))
    def number(c: String) = text(c).try_cast("double")
    val rawLocations = spark.read.option("header", "true").csv(locationCsv)
    val locations = rawLocations.select(col("id"), col("attribute"), number("lat").as("lat"), number("lon").as("lon"))
    val attributes = spark.read
      .schema("attribute STRING")
      .csv(attributeCsv)
      .collect()
      .map(_.getString(0))
      .toSeq

    if (validate) {
      val unknownAttr = rawData
        .select("attribute").distinct()
        .join(attributes.toDF("attribute"), Seq("attribute"), "left_anti")
        .count()
      if (unknownAttr > 0)
        throw ValidationError(s"$unknownAttr attribute(s) in data.csv missing from attribute.csv")

      val unknownSensor = rawData
        .select("id", "attribute").distinct()
        .join(locations.select("id", "attribute"), Seq("id", "attribute"), "left_anti")
        .count()
      if (unknownSensor > 0)
        throw ValidationError(s"$unknownSensor sensor(s) in data.csv missing from location.csv")

      // NaN sorts above every number in Spark SQL, so NaN and ±Infinity
      // fall outside both ranges; a null coordinate is no range violation
      // (that sensor simply has no place in the η-graph). Mining compares
      // and groups sensors by id, so a row without an id or attribute, or
      // an id listed twice (which would merge two series), is rejected.
      val onGlobe = number("lat").between(-90, 90) && number("lon").between(-180, 180)
      def unparseable(c: String) = text(c).isNotNull && number(c).isNull
      val loc = rawLocations
        .agg(
          count(when(!onGlobe || unparseable("lat") || unparseable("lon"), 1)),
          count(when(col("id").isNull || col("attribute").isNull, 1)),
          count(col("id")) - countDistinct(col("id")),
        )
        .collect()(0)
      val (badCoord, unnamed, duplicates) = (loc.getLong(0), loc.getLong(1), loc.getLong(2))
      if (unnamed > 0) throw ValidationError(s"$unnamed location(s) without a sensor id or attribute")
      if (badCoord > 0)
        throw ValidationError(s"$badCoord location(s) with an unparseable or impossible coordinate " +
          "(not a number, NaN, ±Infinity, lat outside [-90, 90] or lon outside [-180, 180])")
      if (duplicates > 0) throw ValidationError(s"$duplicates location(s) repeat the sensor id of another")

      // NaN compares above every number in Spark SQL and breaks the
      // evolving test (|v(t) − v(t−1)| > ε), and two readings at one
      // (id, time) leave segmentation a zero-length step, so non-finite
      // readings and repeated (id, time) pairs are rejected along with
      // unparseable timestamps, in one scan.
      val bad = rawData
        .agg(
          count(when(col("time").isNull, 1)),
          count(when(isnan(col("data")) || abs(col("data")) === Double.PositiveInfinity, 1)),
          count(lit(1)) - countDistinct(col("id"), col("time")),
        )
        .collect()(0)
      val (badTime, nonFinite, repeated) = (bad.getLong(0), bad.getLong(1), bad.getLong(2))
      if (badTime > 0)
        throw ValidationError(s"$badTime record(s) with unparseable timestamps")
      if (nonFinite > 0)
        throw ValidationError(s"$nonFinite record(s) with a non-finite reading (NaN or ±Infinity)")
      if (repeated > 0) throw ValidationError(s"$repeated record(s) repeat the (id, time) of another")

      // One synchronized grid: distinct inter-timestamp gaps must be equal.
      // There are at most thousands of timestamps, so they are sorted here.
      val gaps = rawData
        .select(col("time")).distinct()
        .select(unix_timestamp(col("time")))
        .collect().map(_.getLong(0)).sorted
        .sliding(2).collect { case Array(a, b) => b - a }
        .toSet
      if (gaps.size > 1)
        throw ValidationError(s"timestamps are not on one equal-interval grid: gaps=$gaps")
    }

    SmartCityDataset(name, rawData, locations, attributes)
  }
}
