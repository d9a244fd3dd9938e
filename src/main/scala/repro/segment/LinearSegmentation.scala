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
  * This stage runs per sensor ([[series]]): series are at most a few
  * thousand points, while sensors number in the thousands, so the
  * parallelism axis is the sensor, exactly as the repro layering hint
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
        series(it.map { case (_, t, v) => (t, v) }.toArray, delta).iterator.map { case (t, v) => (id, t, v) }
      }
      .toDF("id", "tIdx", "value")
  }

  /** Stage 1 for one sensor: sorts its (tIdx, value) points by tIdx,
    * forward-fills nulls and smooths. The per-sensor kernel behind
    * [[smooth]] and the fused stage 1–2 pass of `Miscela`.
    */
  def series(pts: Array[(Int, Option[Double])], delta: Double): Array[(Int, Double)] =
    smoothSeries(forwardFill(pts.sortBy(_._1)), delta)

  /** Drops leading nulls, carries the last observation forward elsewhere. */
  private[segment] def forwardFill(pts: Array[(Int, Option[Double])]): Array[(Int, Double)] = {
    val out = Array.newBuilder[(Int, Double)]
    var last: Option[Double] = None
    pts.foreach { case (t, v) =>
      val cur = v.orElse(last)
      cur.foreach { x => out += ((t, x)); last = Some(x) }
    }
    out.result()
  }

  /** Sliding-window PLA over one (sorted, null-free) series. */
  private[segment] def smoothSeries(pts: Array[(Int, Double)], delta: Double): Array[(Int, Double)] = {
    if (pts.length <= 2) return pts
    val out = new Array[(Int, Double)](pts.length)
    var anchor = 0
    var i = 0
    while (anchor < pts.length - 1) {
      var end = anchor + 1
      // Extend while all interior points fit the anchor→end chord.
      var ok = true
      while (ok && end + 1 < pts.length) {
        val cand = end + 1
        ok = fits(pts, anchor, cand, delta)
        if (ok) end = cand
      }
      // Emit the segment [anchor, end): resample interior onto the chord.
      val (t0, v0) = pts(anchor)
      val (t1, v1) = pts(end)
      var j = anchor
      while (j < end) {
        val t = pts(j)._1
        out(j) = (t, v0 + (v1 - v0) * (t - t0).toDouble / (t1 - t0))
        j += 1
      }
      i = end
      anchor = end
    }
    out(pts.length - 1) = pts(pts.length - 1)
    out
  }

  /** True iff every interior point of [a, b] is within delta of the chord. */
  private def fits(pts: Array[(Int, Double)], a: Int, b: Int, delta: Double): Boolean = {
    val (t0, v0) = pts(a)
    val (t1, v1) = pts(b)
    var j = a + 1
    while (j < b) {
      val (t, v) = pts(j)
      val onLine = v0 + (v1 - v0) * (t - t0).toDouble / (t1 - t0)
      if (math.abs(v - onLine) > delta) return false
      j += 1
    }
    true
  }
}
