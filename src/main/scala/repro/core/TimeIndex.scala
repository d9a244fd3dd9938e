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
  * The grid is small (at most a few thousand timestamps). A mining run
  * reads it off the stage 1–2 shuffle (`Miscela`): each reduce partition
  * reports the distinct timestamps of its sensors and the driver merges
  * them with `grid(micros)`, once per persisted `data` frame. The grid then
  * travels to the executors inside the task closure; a record's index is a
  * binary search on it.
  */
object TimeIndex {

  /** The grid: sorted distinct timestamps of `data` as epoch microseconds. */
  def grid(data: DataFrame): Array[Long] =
    data.select(unix_micros(col("time"))).distinct().collect().map(_.getLong(0)).sorted

  /** The grid over the given timestamps (epoch microseconds, in any order,
    * repeats allowed): sorted and distinct.
    */
  def grid(micros: Array[Long]): Array[Long] = {
    val sorted = micros.clone()
    java.util.Arrays.sort(sorted)
    var n = 0
    var i = 0
    while (i < sorted.length) {
      if (n == 0 || sorted(i) != sorted(n - 1)) { sorted(n) = sorted(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(sorted, n)
  }

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
