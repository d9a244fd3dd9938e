package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Connected components over an undirected edge list (MISCELA step 3:
  * "discovering spatially connected sets of sensors").
  *
  * The η-graph has one vertex per sensor, thousands at most, so it is
  * labelled on the driver by union-find ([[labels]]): every component is
  * labelled with its minimum vertex id, in near-linear time whatever the
  * graph's diameter.
  */
object ConnectedComponents {

  /** Assigns a component label to every vertex.
    *
    * @param vertices single-column DataFrame of vertex ids (column `id`);
    *                 must include isolated vertices (they become singleton
    *                 components)
    * @param edges    DataFrame with columns (src, dst); direction ignored
    * @return DataFrame (id, component) where `component` is the minimum
    *         vertex id in the component
    */
  def run(spark: SparkSession, vertices: DataFrame, edges: DataFrame): DataFrame = {
    import spark.implicits._
    val ids = vertices.select(col("id").cast("string")).as[String].collect().toSeq
    val pairs = edges.select(col("src").cast("string"), col("dst").cast("string")).as[(String, String)].collect().toSeq
    labels(ids, pairs).toSeq.toDF("id", "component")
  }

  /** The union-find kernel: vertex id → minimum id of its component.
    * Edges touching an id outside `vertices` are ignored.
    */
  def labels(vertices: Seq[String], edges: Seq[(String, String)]): Map[String, String] = {
    val ids = vertices.distinct.sorted.toArray
    val index = ids.iterator.zipWithIndex.toMap
    // parent(i) <= i throughout, so every root is its set's minimum id.
    val parent = Array.tabulate(ids.length)(identity)
    def find(i: Int): Int = {
      var x = i
      while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
      x
    }
    edges.foreach { case (a, b) =>
      (index.get(a), index.get(b)) match {
        case (Some(i), Some(j)) =>
          val (ri, rj) = (find(i), find(j))
          if (ri < rj) parent(rj) = ri else parent(ri) = rj
        case _ =>
      }
    }
    ids.indices.iterator.map(i => ids(i) -> ids(find(i))).toMap
  }
}
