package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, unix_micros}

import repro.SparkSpec

class TimeIndexSpec extends SparkSpec {
  import TinyWorld._

  /** Each record's position on the grid, in record order. */
  private def indices(data: DataFrame, grid: Array[Long]): Seq[Int] =
    data.select(unix_micros(col("time"))).collect().map(r => TimeIndex.indexOf(grid, r.getLong(0))).toSeq

  test("grid assigns dense ascending indices in time order") {
    val data = dataDf(spark, Map(("a", "t") -> Seq(Some(1.0), Some(2.0), Some(3.0))))
    val grid = TimeIndex.grid(data)
    assert(grid.toSeq.sliding(2).forall { case Seq(a, b) => a < b })
    assert(indices(data.orderBy("time"), grid) == Seq(0, 1, 2))
  }

  test("attach keys every record to the shared grid across sensors") {
    val data = dataDf(spark, Map(
      ("a", "t") -> Seq(Some(1.0), Some(2.0)),
      ("b", "u") -> Seq(Some(3.0), Some(4.0)),
    ))
    val got = TimeIndex.attach(data).collect()
      .map(r => (r.getAs[String]("id"), r.getAs[Int]("tIdx"))).toSet
    assert(got == Set(("a", 0), ("a", 1), ("b", 0), ("b", 1)))
  }

  test("sensors with ragged lengths still share indices for common timestamps") {
    val data = dataDf(spark, Map(
      ("a", "t") -> Seq(Some(1.0), Some(2.0), Some(3.0)),
      ("b", "u") -> Seq(Some(5.0)),
    ))
    val byId = TimeIndex.attach(data).collect()
      .groupBy(_.getAs[String]("id")).view.mapValues(_.map(_.getAs[Int]("tIdx")).sorted.toSeq).toMap
    assert(byId("a") == Seq(0, 1, 2))
    assert(byId("b") == Seq(0))
  }

  test("duplicate (sensor, time) rows do not create duplicate grid slots") {
    val base = dataDf(spark, Map(("a", "t") -> Seq(Some(1.0), Some(2.0))))
    val data = base.union(base)
    val grid = TimeIndex.grid(data)
    assert(grid.length == 2)
    assert(indices(data, grid).toSet == Set(0, 1))
  }

  test("the grid of any collection of the records' timestamps is the grid of the records") {
    // Ragged sensors, one starting late, rows repeated: the timestamps in
    // any order and any grouping give the same sorted distinct grid.
    val base = dataDf(spark, Map(
      ("a", "t") -> Seq(Some(1.0), None, Some(3.0), Some(4.0)),
      ("b", "u") -> Seq(None, Some(2.0)),
    ))
    val data = base.union(base)
    val micros = data.select(unix_micros(col("time"))).collect().map(_.getLong(0))
    val expected = TimeIndex.grid(data).toSeq
    assert(TimeIndex.grid(micros.reverse).toSeq == expected)
    assert(TimeIndex.grid(micros.grouped(3).map(g => TimeIndex.grid(g)).toArray.flatten).toSeq == expected)
    assert(TimeIndex.grid(Array.emptyLongArray).isEmpty)
  }
}
