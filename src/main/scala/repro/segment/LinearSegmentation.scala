package repro.segment

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** MISCELA step 1: "filter uninteresting data fluctuation by applying a
  * linear segmentation algorithm to time series data".
  *
  * We implement the classic sliding-window piecewise-linear approximation
  * (PLA): starting from an anchor point, a segment is extended while every
  * interior point stays within `delta` of the straight line between the
  * anchor and the current endpoint; on violation the segment is emitted and
  * the endpoint becomes the next anchor (segments share endpoints, so the
  * reconstruction is continuous). The smoothed series is the original
  * series re-sampled onto those lines. `delta = 0` degenerates to the
  * identity (every adjacent pair is its own segment).
  *
  * Nulls (the paper's `data.csv` carries explicit nulls) are forward-filled
  * within each sensor series before segmentation; leading nulls are dropped
  * — a sensor with no measurement yet cannot evolve.
  *
  * This stage runs per sensor ([[series]]) on primitive arrays: series are
  * at most a few thousand points, while sensors number in the thousands, so
  * the parallelism axis is the sensor, exactly as the repro layering hint
  * prescribes ("partitioned by location").
  */
object LinearSegmentation {

  /** Forward-fills and smooths `data` (columns: id, tIdx, value with value
    * nullable) and returns (id, tIdx, value) with non-null doubles.
    */
  def smooth(data: DataFrame, delta: Double): DataFrame = {
    require(delta >= 0, s"delta must be non-negative, got $delta")
    val spark = data.sparkSession
    import spark.implicits._

    data
      .select(col("id").cast("string"), col("tIdx").cast("int"), col("value").cast("double"))
      .as[(String, Int, Option[Double])]
      .groupByKey(_._1)
      .flatMapGroups { (id, it) =>
        val pts = it.toArray
        val (t, v) = series(pts.map(_._2), pts.map(_._3.getOrElse(0.0)), pts.map(_._3.isDefined), delta)
        t.iterator.zip(v.iterator).map { case (ti, vi) => (id, ti, vi) }
      }
      .toDF("id", "tIdx", "value")
  }

  /** Stage 1 for one sensor. Point i is at grid index `t(i)` with value
    * `v(i)`, or null where `present(i)` is false; points may come in any
    * order. Orders them by index (stably: points at one index keep their
    * order), forward-fills nulls, drops leading nulls and smooths.
    *
    * @return the smoothed series as (indices, values), ascending by index
    */
  def series(t: Array[Int], v: Array[Double], present: Array[Boolean], delta: Double): (Array[Int], Array[Double]) = {
    val n = t.length
    // Index in the high 32 bits, position in the low: one primitive sort
    // that breaks ties by position.
    val order = new Array[Long](n)
    var i = 0
    while (i < n) {
      order(i) = t(i).toLong << 32 | i
      i += 1
    }
    java.util.Arrays.sort(order)
    val ts = new Array[Int](n)
    val vs = new Array[Double](n)
    var m = 0
    var seen = false
    var last = 0.0
    i = 0
    while (i < n) {
      val p = order(i).toInt
      if (present(p)) { last = v(p); seen = true }
      if (seen) { ts(m) = t(p); vs(m) = last; m += 1 }
      i += 1
    }
    val out = (java.util.Arrays.copyOf(ts, m), java.util.Arrays.copyOf(vs, m))
    smoothInPlace(out._1, out._2, delta)
    out
  }

  /** Sliding-window PLA over one sorted, null-free series, in place. A
    * segment [anchor, end) reads only original values at and after its
    * anchor, and the next anchor is its end, so overwriting the segment
    * once it is chosen changes no later decision.
    */
  private def smoothInPlace(t: Array[Int], v: Array[Double], delta: Double): Unit = {
    val n = t.length
    if (n <= 2) return
    var anchor = 0
    while (anchor < n - 1) {
      var end = anchor + 1
      // Extend while all interior points fit the anchor→end chord.
      while (end + 1 < n && fits(t, v, anchor, end + 1, delta)) end += 1
      // Resample [anchor, end) onto the chord.
      val t0 = t(anchor)
      val v0 = v(anchor)
      val t1 = t(end)
      val v1 = v(end)
      var j = anchor
      while (j < end) {
        v(j) = v0 + (v1 - v0) * (t(j) - t0).toDouble / (t1 - t0)
        j += 1
      }
      anchor = end
    }
  }

  /** True iff every interior point of [a, b] is within delta of the chord. */
  private def fits(t: Array[Int], v: Array[Double], a: Int, b: Int, delta: Double): Boolean = {
    val t0 = t(a)
    val v0 = v(a)
    val t1 = t(b)
    val v1 = v(b)
    var j = a + 1
    while (j < b) {
      val onLine = v0 + (v1 - v0) * (t(j) - t0).toDouble / (t1 - t0)
      if (math.abs(v(j) - onLine) > delta) return false
      j += 1
    }
    true
  }
}
