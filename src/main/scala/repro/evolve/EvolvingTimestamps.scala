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
  * Runs per sensor ([[events]]); the previous timestamp is the sensor's
  * previous point on the grid, so gaps compare across the gap.
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
        val pts = it.map { case (_, t, v) => (t, v) }.toArray.sortBy(_._1)
        events(pts, epsilon).iterator.map { case (t, sign) => (id, t, sign) }
      }
      .toDF("id", "tIdx", "sign")
  }

  /** Stage 2 for one sensor: (tIdx, sign) of every point of `series`
    * (sorted by tIdx, null-free) whose change from its predecessor
    * exceeds ε. The first point never evolves.
    */
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
