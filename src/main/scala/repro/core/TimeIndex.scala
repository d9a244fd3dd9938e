package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Dense integer index over the dataset's synchronized timestamps.
  *
  * The paper requires "timestamps must be the same time intervals" and all
  * sensors synchronized, so the distinct timestamps of `data.csv` form one
  * global grid; bitsets in the CAP search are indexed by position on that
  * grid.
  *
  * The grid is small (at most a few thousand timestamps), so it is
  * collected once and travels to the executors inside the task closure;
  * a record's index is a binary search on it.
  */
object TimeIndex {

  /** The grid: sorted distinct timestamps of `data` as epoch microseconds. */
  def grid(data: DataFrame): Array[Long] =
    data.select(unix_micros(col("time"))).distinct().collect().map(_.getLong(0)).sorted

  /** Position of `micros` on `grid`, which must contain it. */
  def indexOf(grid: Array[Long], micros: Long): Int = {
    val i = java.util.Arrays.binarySearch(grid, micros)
    require(i >= 0, s"timestamp $micros (epoch µs) is not on the time grid")
    i
  }

  /** Attaches tIdx to every record of `data` (columns id, attribute, time, data). */
  def attach(data: DataFrame): DataFrame = {
    val g = grid(data)
    val tIdx = udf((micros: Long) => indexOf(g, micros))
    data.withColumn("tIdx", tIdx(unix_micros(col("time"))))
  }
}
