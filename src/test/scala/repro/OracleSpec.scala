package repro

import org.apache.spark.sql.functions._

/** Sanity checks for the DuckDB oracle the smart-city suites compare
  * against, on a small literal frame.
  */
class OracleSpec extends SparkSpec {

  private val sql = "SELECT attribute, count(*) AS n, sum(CAST(v AS DOUBLE)) AS total FROM readings GROUP BY attribute"

  private def readings = {
    import spark.implicits._
    Seq(("temperature", 1.5), ("temperature", 2.0), ("light", 300.0), ("noise", 55.25), ("light", 280.5))
      .toDF("attribute", "v")
  }

  test("oracle accepts an equivalent aggregate") {
    val sparkDf = readings.groupBy("attribute").agg(count(lit(1)).as("n"), sum("v").as("total"))
    Oracle.assertEquivalent(sparkDf, sql, "readings" -> readings)
  }

  test("oracle rejects a wrong result") {
    val wrong = readings.groupBy("attribute").agg((count(lit(1)) + 1).as("n"), sum("v").as("total"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "readings" -> readings)
    }
  }

  test("oracle rejects mismatched column names") {
    val df = readings.groupBy("attribute").agg(count(lit(1)).as("wrong_name"), sum("v").as("total"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, sql, "readings" -> readings)
    }
  }
}
