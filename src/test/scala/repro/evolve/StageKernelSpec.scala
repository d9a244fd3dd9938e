package repro.evolve

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.segment.LinearSegmentation

/** The stage 1–2 kernels as they were on boxed tuples, kept as the oracle
  * for the primitive-array kernels: sort by index (stable), forward-fill,
  * sliding-window PLA, strict ε diff.
  */
private object TupleKernels {

  def series(pts: Array[(Int, Option[Double])], delta: Double): Array[(Int, Double)] =
    smoothSeries(forwardFill(pts.sortBy(_._1)), delta)

  def forwardFill(pts: Array[(Int, Option[Double])]): Array[(Int, Double)] = {
    val out = Array.newBuilder[(Int, Double)]
    var last: Option[Double] = None
    pts.foreach { case (t, v) =>
      val cur = v.orElse(last)
      cur.foreach { x => out += ((t, x)); last = Some(x) }
    }
    out.result()
  }

  def smoothSeries(pts: Array[(Int, Double)], delta: Double): Array[(Int, Double)] = {
    if (pts.length <= 2) return pts
    val out = new Array[(Int, Double)](pts.length)
    var anchor = 0
    while (anchor < pts.length - 1) {
      var end = anchor + 1
      var ok = true
      while (ok && end + 1 < pts.length) {
        val cand = end + 1
        ok = fits(pts, anchor, cand, delta)
        if (ok) end = cand
      }
      val (t0, v0) = pts(anchor)
      val (t1, v1) = pts(end)
      var j = anchor
      while (j < end) {
        val t = pts(j)._1
        out(j) = (t, v0 + (v1 - v0) * (t - t0).toDouble / (t1 - t0))
        j += 1
      }
      anchor = end
    }
    out(pts.length - 1) = pts(pts.length - 1)
    out
  }

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

  def events(series: Array[(Int, Double)], epsilon: Double): Array[(Int, Int)] = {
    val out = Array.newBuilder[(Int, Int)]
    var i = 1
    while (i < series.length) {
      val delta = series(i)._2 - series(i - 1)._2
      if (math.abs(delta) > epsilon) out += ((series(i)._1, if (delta > 0) 1 else -1))
      i += 1
    }
    out.result()
  }
}

/** The primitive stage 1–2 kernel ([[LinearSegmentation.series]] then
  * [[EvolvingTimestamps.events]]) is bit-identical to the tuple kernels.
  */
class StageKernelSpec extends AnyFunSuite {

  /** A random sensor series as it arrives: (grid index, value or null)
    * in shuffled order. Indices climb with gaps and the odd repeat (a
    * repeated reading, whose arrival order then decides the fill); values
    * walk on a 0.5 lattice, so steps exactly equal to ε = 0.5 or 1.0 occur;
    * nulls lead, fall inside, or fill the whole series.
    */
  private def arrivals(r: Random): Array[(Int, Option[Double])] = {
    val n = if (r.nextInt(10) == 0) r.nextInt(4) else r.nextInt(301)
    val nullRate = Seq(0.0, 0.1, 0.5, 1.0)(r.nextInt(4))
    val leading = r.nextInt(6)
    val repeats = r.nextBoolean()
    var t = r.nextInt(5)
    var v = (r.nextInt(21) - 10) * 0.5
    val pts = (0 until n).map { i =>
      val p = (t, if (i < leading || r.nextDouble() < nullRate) None else Some(v))
      t += (if (repeats && r.nextInt(8) == 0) 0 else 1 + (if (r.nextInt(4) == 0) r.nextInt(4) else 0))
      v += (r.nextInt(9) - 4) * 0.5
      p
    }
    r.shuffle(pts).toArray
  }

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToLongBits)

  for (delta <- Seq(0.0, 0.5, 3.0); epsilon <- Seq(0.0, 1.0)) {
    test(s"property: the primitive kernel equals the tuple kernels (delta $delta, epsilon $epsilon)") {
      val r = new Random(s"$delta/$epsilon".hashCode)
      (1 to 300).foreach { k =>
        val pts = arrivals(r)
        val smoothed = LinearSegmentation.series(pts.map(_._1), pts.map(_._2.getOrElse(0.0)), pts.map(_._2.isDefined), delta)
        val (plus, minus) = EvolvingTimestamps.events(smoothed, epsilon)
        val oracleSeries = TupleKernels.series(pts, delta)
        val oracle = TupleKernels.events(oracleSeries, epsilon)
        val ctx = s"series $k: ${pts.mkString(" ")}"
        assert(smoothed._1.toSeq == oracleSeries.map(_._1).toSeq, ctx)
        assert(bits(smoothed._2) == bits(oracleSeries.map(_._2)), ctx)
        assert(plus.toSeq == oracle.collect { case (t, 1) => t }.toSeq, ctx)
        assert(minus.toSeq == oracle.collect { case (t, -1) => t }.toSeq, ctx)
      }
    }
  }

  test("the random series cover the cases the property is about") {
    val r = new Random(7)
    val all = Seq.fill(300)(arrivals(r))
    assert(all.exists(_.isEmpty) && all.exists(_.length > 250))
    assert(all.exists(p => p.nonEmpty && p.forall(_._2.isEmpty)), "an all-null series")
    assert(all.exists(p => p.map(_._1).distinct.length < p.length), "a repeated index")
    assert(all.exists(p => p.map(_._1).sorted.toSeq != p.map(_._1).toSeq), "out-of-order arrival")
    assert(all.exists { p =>
      val ts = p.map(_._1).distinct.sorted
      ts.length > 1 && ts.last - ts.head >= ts.length
    }, "a gap in the indices")
    val steps = all.flatMap { p =>
      val s = TupleKernels.forwardFill(p.sortBy(_._1))
      s.indices.drop(1).map(i => math.abs(s(i)._2 - s(i - 1)._2))
    }
    assert(steps.contains(1.0) && steps.contains(0.5) && steps.contains(0.0), "steps exactly at epsilon")
  }
}
