package repro.ingest

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import repro.SparkSpec
import repro.core.TinyWorld
import repro.data.{SmartCityData, SmartCityDataset}

class CsvIngestSpec extends SparkSpec {

  private def tmpDir(): String = Files.createTempDirectory("ingest-spec").toString

  private def writeFiles(dir: String, data: Seq[String], loc: Seq[String], attrs: Seq[String]): (String, String, String) = {
    def w(name: String, lines: Seq[String]): String = {
      val p = Paths.get(dir, name)
      Files.write(p, lines.mkString("\n").getBytes(StandardCharsets.UTF_8))
      p.toString
    }
    (w("data.csv", data), w("location.csv", loc), w("attribute.csv", attrs))
  }

  private val header = "id,attribute,time,data"
  private val locHeader = "id,attribute,lat,lon"

  test("reads the paper's example format, including the null literal") {
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header,
        "00000,temperature,2016-03-01 00:00:00,null",
        "00000,temperature,2016-03-01 01:00:00,9.87"),
      Seq(locHeader, "00000,temperature,43.46192,-3.80176"),
      Seq("temperature", "light"))
    val ds = CsvIngest.read(spark, "santander", d, l, a)
    assert(ds.name == "santander")
    assert(ds.attributes == Seq("temperature", "light"))
    val rows = ds.data.orderBy("time").collect()
    assert(rows.length == 2)
    assert(rows(0).isNullAt(3))
    assert(rows(1).getDouble(3) == 9.87)
    val loc = ds.locations.collect()(0)
    assert(loc.getDouble(2) == 43.46192 && loc.getDouble(3) == -3.80176)
  }

  test("rejects data attributes missing from attribute.csv") {
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header, "00000,sound,2016-03-01 00:00:00,1.0"),
      Seq(locHeader, "00000,sound,43.0,-3.8"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("attribute"))
  }

  test("rejects sensors missing from location.csv") {
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header, "00001,temperature,2016-03-01 00:00:00,1.0"),
      Seq(locHeader, "00000,temperature,43.0,-3.8"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("sensor"))
  }

  test("rejects a ragged (non-equal-interval) timestamp grid") {
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header,
        "00000,temperature,2016-03-01 00:00:00,1.0",
        "00000,temperature,2016-03-01 01:00:00,2.0",
        "00000,temperature,2016-03-01 03:30:00,3.0"),
      Seq(locHeader, "00000,temperature,43.0,-3.8"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("grid"))
  }

  test("rejects unparseable timestamps") {
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header, "00000,temperature,not-a-time,1.0"),
      Seq(locHeader, "00000,temperature,43.0,-3.8"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("timestamp"))
  }

  test("rejects NaN and infinite readings with their count") {
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header,
        "00000,temperature,2016-03-01 00:00:00,1.0",
        "00000,temperature,2016-03-01 01:00:00,NaN",
        "00000,temperature,2016-03-01 02:00:00,Infinity",
        "00000,temperature,2016-03-01 03:00:00,-Infinity",
        "00000,temperature,2016-03-01 04:00:00,null"),
      Seq(locHeader, "00000,temperature,43.0,-3.8"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("3 record(s)") && err.getMessage.contains("non-finite"))
  }

  test("rejects impossible coordinates with their count; a null coordinate passes") {
    val dir = tmpDir()
    val data = Seq(header) ++ Seq("00000", "00001", "00002", "00003", "00004", "00005")
      .map(id => s"$id,temperature,2016-03-01 00:00:00,1.0")
    val (d, l, a) = writeFiles(dir, data,
      Seq(locHeader,
        "00000,temperature,95.0,-3.8",
        "00001,temperature,43.0,-180.5",
        "00002,temperature,NaN,-3.8",
        "00003,temperature,43.0,Infinity",
        "00004,temperature,,-3.8",
        "00005,temperature,-90.0,180.0"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("4 location(s)") && err.getMessage.contains("impossible coordinate"))

    val (d2, l2, a2) = writeFiles(tmpDir(), data.take(2), Seq(locHeader, "00000,temperature,,-3.8"), Seq("temperature"))
    assert(CsvIngest.read(spark, "x", d2, l2, a2).locations.count() == 1)
  }

  test("rejects a sensor id listed twice in location.csv with the count") {
    // Each (id, attribute) of data.csv is registered, but 00000 and 00001
    // each carry two attributes: mining would merge their two series.
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header,
        "00000,temperature,2016-03-01 00:00:00,1.0",
        "00000,humidity,2016-03-01 00:00:00,60.0",
        "00001,temperature,2016-03-01 00:00:00,2.0",
        "00001,humidity,2016-03-01 00:00:00,61.0",
        "00002,temperature,2016-03-01 00:00:00,3.0"),
      Seq(locHeader,
        "00000,temperature,43.0,-3.8",
        "00000,humidity,43.0,-3.8",
        "00001,temperature,43.1,-3.8",
        "00001,humidity,43.1,-3.8",
        "00002,temperature,43.2,-3.8"),
      Seq("temperature", "humidity"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("2 location(s)") && err.getMessage.contains("sensor id"))
  }

  test("rejects an unparseable coordinate, counted with the impossible ones") {
    val dir = tmpDir()
    val data = Seq(header) ++ Seq("00000", "00001", "00002")
      .map(id => s"$id,temperature,2016-03-01 00:00:00,1.0")
    val (d, l, a) = writeFiles(dir, data,
      Seq(locHeader,
        "00000,temperature,abc,-3.8",
        "00001,temperature,95.0,-3.8",
        "00002,temperature,43.0,null"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("2 location(s)") && err.getMessage.contains("unparseable or impossible coordinate"))
  }

  test("rejects location rows without an id or attribute with their count") {
    // Mining compares sensor ids; a null one would fail deep in stage 3.
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header, "00000,temperature,2016-03-01 00:00:00,1.0"),
      Seq(locHeader,
        "00000,temperature,43.0,-3.8",
        ",temperature,43.1,-3.8",
        "00002,,43.2,-3.8"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("2 location(s)") && err.getMessage.contains("without a sensor id or attribute"))
  }

  test("rejects two readings for one (id, time) with the count") {
    // Segmentation would see a zero-length step and lose the sensor's CAPs.
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header,
        "a,temperature,2016-03-01 00:00:00,1.0",
        "a,temperature,2016-03-01 01:00:00,5.0",
        "a,temperature,2016-03-01 01:00:00,7.0",
        "b,light,2016-03-01 00:00:00,1.0",
        "b,light,2016-03-01 01:00:00,5.0"),
      Seq(locHeader, "a,temperature,43.0,-3.8", "b,light,43.0,-3.8"),
      Seq("temperature", "light"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("1 record(s)") && err.getMessage.contains("(id, time)"))
  }

  test("validate = false skips the checks") {
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header, "00001,mystery,2016-03-01 00:00:00,1.0"),
      Seq(locHeader, "00000,temperature,43.0,-3.8"),
      Seq("temperature"))
    val ds = CsvIngest.read(spark, "x", d, l, a, validate = false)
    assert(ds.data.count() == 1)
  }

  test("round-trip: export a generated dataset and ingest it back unchanged") {
    val ds = SmartCityData.covid19(spark)
    import org.apache.spark.sql.functions._
    val slice = ds.data.where(col("time") < lit("2020-01-05")) // keep the file small
    val small = ds.copy(data = slice)
    val dir = tmpDir()
    val (d, l, a) = CsvExport.write(small, dir)
    val back = CsvIngest.read(spark, "covid19", d, l, a)

    assert(back.attributes == ds.attributes)
    assert(back.locations.count() == ds.locations.count())
    assert(back.data.count() == slice.count())
    // Values survive the text round trip (nulls included).
    val orig = slice.orderBy("id", "time").collect()
      .map(r => (r.getString(0), r.getTimestamp(2), Option(r.get(3)).map(_.toString)))
    val readBack = back.data.orderBy("id", "time").collect()
      .map(r => (r.getString(0), r.getTimestamp(2), Option(r.get(3)).map(_.toString)))
    assert(orig.toSeq == readBack.toSeq)
  }

  test("round-trip keeps a null coordinate, which CsvExport writes as the null literal") {
    import spark.implicits._
    val locs = Seq[(String, String, Option[Double], Option[Double])](
      ("00000", "temperature", Some(43.46), Some(-3.8)),
      ("00001", "temperature", None, Some(-3.81)),
    ).toDF("id", "attribute", "lat", "lon")
    val data = TinyWorld.dataDf(spark, Map(
      ("00000", "temperature") -> Seq(Some(1.0), Some(2.0)),
      ("00001", "temperature") -> Seq(Some(3.0), None),
    ))
    val (d, l, a) = CsvExport.write(SmartCityDataset("x", data, locs, Seq("temperature")), tmpDir())
    assert(Files.readAllLines(Paths.get(l)).contains("00001,temperature,null,-3.81"))
    val back = CsvIngest.read(spark, "x", d, l, a).locations.orderBy("id").collect()
    assert(back.length == 2 && back(0).getDouble(2) == 43.46)
    assert(back(1).isNullAt(2) && back(1).getDouble(3) == -3.81)
  }

  test("round-trip preserves null count") {
    val ds = SmartCityData.santander(spark, 0.01)
    import org.apache.spark.sql.functions._
    val slice = ds.data.where(col("time") < lit("2016-03-10"))
    val dir = tmpDir()
    val (d, l, a) = CsvExport.write(ds.copy(data = slice), dir)
    val back = CsvIngest.read(spark, "santander", d, l, a)
    assert(back.data.where(col("data").isNull).count() ==
      slice.where(col("data").isNull).count())
  }
}
