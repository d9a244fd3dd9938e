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

  test("counts unknown attributes once each, an empty attribute among them") {
    // sound and wind are unlisted, and the empty field is read as null,
    // which matches no listed attribute. Every pair is registered.
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header,
        "00000,temperature,2016-03-01 00:00:00,1.0",
        "00001,sound,2016-03-01 00:00:00,1.0",
        "00001,sound,2016-03-01 01:00:00,2.0",
        "00002,sound,2016-03-01 00:00:00,1.0",
        "00003,wind,2016-03-01 00:00:00,1.0",
        "00004,,2016-03-01 00:00:00,1.0"),
      Seq(locHeader, "00000,temperature,43.0,-3.8", "00001,sound,43.0,-3.8", "00002,sound,43.0,-3.8",
        "00003,wind,43.0,-3.8", "00004,,43.0,-3.8"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage == "3 attribute(s) in data.csv missing from attribute.csv")
  }

  test("counts each unregistered (id, attribute) pair once, a null id among them") {
    // 00001 is not registered; 00000 is, but not for humidity; the empty id
    // is null, which matches no location row, not even one without an id.
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header,
        "00000,temperature,2016-03-01 00:00:00,1.0",
        "00000,humidity,2016-03-01 00:00:00,60.0",
        "00001,temperature,2016-03-01 00:00:00,1.0",
        "00001,temperature,2016-03-01 01:00:00,2.0",
        ",temperature,2016-03-01 00:00:00,3.0"),
      Seq(locHeader, "00000,temperature,43.0,-3.8", ",temperature,43.1,-3.8"),
      Seq("temperature", "humidity"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage == "3 sensor(s) in data.csv missing from location.csv")
  }

  test("of two faults, the one checked first is raised, with its count") {
    // Each fault alone fails exactly its own check with a count of 1, on a
    // clean two-sensor base; faults are listed in the order they are checked.
    val t0 = "2016-03-01 00:00:00"
    final case class Fault(expected: String, data: Seq[String] = Nil, loc: Seq[String] = Nil)
    val faults = Seq(
      Fault("1 attribute(s) in data.csv missing", Seq(s"m1,mystery,$t0,1.0"), Seq("m1,mystery,43.0,-3.8")),
      Fault("1 sensor(s) in data.csv missing", Seq(s"u1,temperature,$t0,1.0")),
      Fault("1 location(s) without a sensor id", loc = Seq(",temperature,43.0,-3.8")),
      Fault("1 location(s) with an unparseable or impossible coordinate", loc = Seq("c1,temperature,95.0,-3.8")),
      Fault("1 location(s) repeat the sensor id", loc = Seq("d1,temperature,43.0,-3.8", "d1,light,43.0,-3.8")),
      Fault("1 record(s) with unparseable timestamps", Seq("a,temperature,not-a-time,1.0")),
      Fault("1 record(s) with a non-finite reading", Seq(s"r1,temperature,$t0,NaN"), Seq("r1,temperature,43.0,-3.8")),
      Fault("1 record(s) repeat the (id, time)", Seq(s"a,temperature,$t0,5.0")),
      Fault("timestamps are not on one equal-interval grid",
        Seq("g1,temperature,2016-03-01 03:30:00,1.0"), Seq("g1,temperature,43.0,-3.8")),
    )
    val baseData = for (id <- Seq("a", "b"); h <- 0 to 3) yield s"$id,temperature,2016-03-01 0$h:00:00,$h.0"
    val baseLoc = Seq("a,temperature,43.0,-3.8", "b,temperature,43.0,-3.8")
    def raised(fs: Fault*): String = {
      val (d, l, a) = writeFiles(tmpDir(), header +: (baseData ++ fs.flatMap(_.data)),
        locHeader +: (baseLoc ++ fs.flatMap(_.loc)), Seq("temperature", "light"))
      intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }.getMessage
    }
    for (i <- faults.indices; j <- faults.indices if i < j) {
      val message = raised(faults(i), faults(j))
      assert(message.startsWith(faults(i).expected), s"faults $i and $j: $message")
    }
  }

  test("an unparseable reading is counted with the non-finite ones") {
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header,
        "00000,temperature,2016-03-01 00:00:00,1.0",
        "00000,temperature,2016-03-01 01:00:00,abc",
        "00000,temperature,2016-03-01 02:00:00,NaN",
        "00000,temperature,2016-03-01 03:00:00,null"),
      Seq(locHeader, "00000,temperature,43.0,-3.8"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("2 record(s)") && err.getMessage.contains("non-finite"))
  }

  test("rejects a grid whose gaps differ below one second") {
    // Whole seconds read 1 s and 1 s; the mining grid's microseconds read
    // 1,000,000 and 1,500,000.
    val dir = tmpDir()
    val (d, l, a) = writeFiles(dir,
      Seq(header,
        "00000,temperature,2016-03-01 10:00:00,1.0",
        "00000,temperature,2016-03-01 10:00:01,2.0",
        "00000,temperature,2016-03-01 10:00:02.5,3.0"),
      Seq(locHeader, "00000,temperature,43.0,-3.8"),
      Seq("temperature"))
    val err = intercept[CsvIngest.ValidationError] { CsvIngest.read(spark, "x", d, l, a) }
    assert(err.getMessage.contains("grid"))
  }

  test("validation reads data.csv's rows at most twice") {
    // data.csv holds 40 sensors x 100 hours; the other two files 43 rows.
    val ids = (0 until 40).map(i => f"s$i%02d")
    val data = for (id <- ids; h <- 0 until 100)
      yield f"$id,temperature,2016-03-${1 + h / 24}%02d ${h % 24}%02d:00:00,$h.0"
    val loc = ids.map(id => s"$id,temperature,43.0,-3.8")
    val attrs = Seq("temperature", "light", "humidity")
    val (d, l, a) = writeFiles(tmpDir(), header +: data, locHeader +: loc, attrs)
    val (ds, run) = observe("validated-read")(CsvIngest.read(spark, "x", d, l, a))
    assert(ds.attributes == attrs)
    val read = run.tasks.map(_.inputMetrics.recordsRead).sum
    // Besides two passes over data.csv: location.csv and attribute.csv
    // once each, and a few lines for the header of each CSV with one.
    assert(read >= 2 * data.length && read <= 2 * data.length + loc.length + attrs.length + 10,
      s"$read records read for ${data.length} data rows")
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
