package repro.evolve

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** MISCELA step 2: extract evolving timestamps.
  *
  * A sensor *evolves* at timestamp t if the change from the previous
  * timestamp exceeds the evolving rate ε: |v(t) − v(t−1)| > ε. The sign of
  * the change is kept because co-evolution under the default SameSign
  * policy requires all sensors of a pattern to move the same way.
  *
  * Runs per sensor ([[events]]) on the primitive arrays stage 1 returns;
  * the previous timestamp is the sensor's previous point on the grid, so
  * gaps compare across the gap.
  */
object EvolvingTimestamps {

  /** From a smoothed series (id, tIdx, value), value non-null, to evolving
    * events (id, tIdx, sign) with sign ∈ {−1, +1}.
    */
  def extract(smoothed: DataFrame, epsilon: Double): DataFrame = {
    require(epsilon >= 0, s"epsilon must be non-negative, got $epsilon")
    val spark = smoothed.sparkSession
    import spark.implicits._

    smoothed
      .select(col("id").cast("string"), col("tIdx").cast("int"), col("value").cast("double"))
      .as[(String, Int, Double)]
      .groupByKey(_._1)
      .flatMapGroups { (id, it) =>
        val pts = it.toArray.sortBy(_._2)
        val (plus, minus) = events((pts.map(_._2), pts.map(_._3)), epsilon)
        plus.iterator.map((id, _, 1)) ++ minus.iterator.map((id, _, -1))
      }
      .toDF("id", "tIdx", "sign")
  }

  /** Stage 2 for one sensor: the indices of the points of `series`
    * (indices, values; ascending by index, as [[repro.segment.LinearSegmentation.series]]
    * returns it) whose change from the previous point exceeds ε, as
    * (rises, falls). The first point never evolves.
    */
  def events(series: (Array[Int], Array[Double]), epsilon: Double): (Array[Int], Array[Int]) = {
    val (t, v) = series
    val plus = Array.newBuilder[Int]
    val minus = Array.newBuilder[Int]
    var i = 1
    while (i < t.length) {
      val delta = v(i) - v(i - 1)
      if (math.abs(delta) > epsilon) (if (delta > 0) plus else minus) += t(i)
      i += 1
    }
    (plus.result(), minus.result())
  }
}
