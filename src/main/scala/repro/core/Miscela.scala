package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.evolve.EvolvingTimestamps
import repro.geo.SpatialJoin
import repro.graph.ConnectedComponents
import repro.segment.LinearSegmentation

/** A sensor routed to its spatial component, with its evolving timestamps
  * as index lists (bitset-encoded inside the search).
  */
final case class CompSensor(component: String, id: String, attribute: String, plus: Seq[Int], minus: Seq[Int])

/** An η-proximity edge routed to its spatial component. */
final case class CompEdge(component: String, src: String, dst: String)

/** End-to-end MISCELA pipeline (Section 2.2).
  *
  * Spark touches only the measurement records, the one input that is big
  * (millions of rows); everything derived from them is small (at most
  * thousands of sensors and timestamps) and is assembled on the driver:
  *
  *  - the time grid ([[TimeIndex]]) is collected once;
  *  - stages 1–2 run as one per-sensor pass, a `groupByKey(id)` that maps
  *    each record onto the grid, then sorts, forward-fills and smooths the
  *    series ([[LinearSegmentation.series]]) and diffs it against ε
  *    ([[EvolvingTimestamps.events]]). A sensor with fewer than ψ evolving
  *    timestamps can never appear in a CAP (a set's support is bounded by
  *    each member's own support), so it is dropped there; the survivors'
  *    plus/minus index lists are collected;
  *  - stage 3 runs on the driver over the collected locations: the
  *    η-proximity join ([[SpatialJoin.pairs]]) and union-find components
  *    ([[ConnectedComponents.labels]]);
  *  - stage 4 is one lazy Spark job. Search subtrees under different roots
  *    are independent ([[CapSearch]]), so the unit of work is a (component,
  *    root) pair: the units of the components with at least two sensors are
  *    numbered in component order and dealt round-robin to
  *    min(defaultParallelism, units) tasks. One large component is thus
  *    searched on every core, and many small ones share a few tasks.
  */
object Miscela {

  /** Stages 1–2 for every sensor of `data` (id, attribute, time, data):
    * (id, plus, minus) indices on `grid` of its evolving timestamps, for
    * the sensors with at least ψ of them.
    */
  private def evolution(
      data: DataFrame,
      grid: Array[Long],
      params: CapParams,
  ): Dataset[(String, Seq[Int], Seq[Int])] = {
    val spark = data.sparkSession
    import spark.implicits._
    data
      .select(col("id").cast("string"), unix_micros(col("time")), col("data").cast("double"))
      .as[(String, Long, Option[Double])]
      .groupByKey(_._1)
      .flatMapGroups { (id, it) =>
        val pts = it.map { case (_, t, v) => (TimeIndex.indexOf(grid, t), v) }.toArray
        val events = EvolvingTimestamps.events(LinearSegmentation.series(pts, params.delta), params.epsilon)
        if (events.length < params.psi) Iterator.empty
        else {
          val (plus, minus) = events.toSeq.partition(_._2 > 0)
          Iterator((id, plus.map(_._1), minus.map(_._1)))
        }
      }
  }

  /** Stages 1–3 on the driver: each component holding a sensor that
    * survived the ψ prune, as (sensors, edges between them), in component
    * order, plus the number of timestamps on the global grid. Harnesses
    * that time the search stage in isolation (T3) call it directly.
    */
  def assembleComponents(
      spark: SparkSession,
      data: DataFrame,
      locations: DataFrame,
      params: CapParams,
  ): (Seq[(Array[CompSensor], Array[CompEdge])], Int) = {
    import spark.implicits._
    val grid = TimeIndex.grid(data)
    val kept = evolution(data, grid, params).collect().map(s => s._1 -> s).toMap
    val locs = locations
      .select(col("id").cast("string"), col("attribute").cast("string"),
        col("lat").cast("double"), col("lon").cast("double"))
      .as[(String, String, Option[Double], Option[Double])]
      .collect()
      .toSeq
    val sites = locs.collect { case (id, _, Some(lat), Some(lon)) => (id, lat, lon) }
    val edges = SpatialJoin.pairs(sites, params.etaKm)
    val component = ConnectedComponents.labels(locs.map(_._1), edges.map(e => (e._1, e._2)))

    // A sensor without a location has no place in the η-graph; drop it.
    val sensors = locs.collect { case (id, attribute, _, _) if kept.contains(id) =>
      val (_, plus, minus) = kept(id)
      CompSensor(component(id), id, attribute, plus, minus)
    }
    val edgesOf = edges
      .collect { case (src, dst, _) if kept.contains(src) && kept.contains(dst) => CompEdge(component(src), src, dst) }
      .groupBy(_.component)
    val comps = sensors.groupBy(_.component).toSeq.sortBy(_._1).map { case (c, members) =>
      (members.toArray, edgesOf.getOrElse(c, Nil).toArray)
    }
    (comps, grid.length)
  }

  /** Stages 1–3 plus routing: sensors and η-edges keyed by component
    * (see [[assembleComponents]]).
    *
    * @return (sensors per component, edges per component, number of
    *         timestamps on the global grid)
    */
  def routed(
      spark: SparkSession,
      data: DataFrame,
      locations: DataFrame,
      params: CapParams,
  ): (Dataset[CompSensor], Dataset[CompEdge], Int) = {
    import spark.implicits._
    val (comps, nT) = assembleComponents(spark, data, locations, params)
    (comps.flatMap(_._1).toDS(), comps.flatMap(_._2).toDS(), nT)
  }

  /** Full CAP mining: all four stages. Stages 1–3 run when this is called;
    * the search runs when the returned Dataset is evaluated.
    *
    * @param data      measurement records (id, attribute, time, data)
    * @param locations sensor registry (id, attribute, lat, lon)
    * @param useNaive  swap the pruned CAP search for the brute-force
    *                  baseline (identical output, used by the T3 bench)
    * @return all CAPs of the dataset under `params`
    */
  def mine(
      spark: SparkSession,
      data: DataFrame,
      locations: DataFrame,
      params: CapParams,
      useNaive: Boolean = false,
  ): Dataset[Cap] = {
    import spark.implicits._
    val (comps, nT) = assembleComponents(spark, data, locations, params)
    // A lone sensor has no pattern. Every other component contributes one
    // unit per member; `first(c)` is the ordinal of component c's root 0.
    val searched = comps.filter(_._1.length >= 2).toArray
    val first = searched.scanLeft(0)(_ + _._1.length)
    val k = math.max(1, math.min(spark.sparkContext.defaultParallelism, first.last))
    spark.sparkContext
      .parallelize(0 until k, k)
      .flatMap { j =>
        // Task j searches the units whose ordinal is j modulo k, and builds
        // only the components it holds a root of.
        searched.iterator.zip(first.iterator).flatMap { case ((sensors, edges), f) =>
          if (Math.floorMod(j - f, k) >= sensors.length) Nil
          else searchAssembled(sensors, edges, nT, params, useNaive, r => (f + r) % k == j)
        }
      }
      .toDS()
  }

  /** Builds one assembled component's in-memory structures (see
    * [[assembleComponents]]) and runs the chosen search on it, over the
    * selected roots. Members are indexed in id order, so root r is the
    * sensor with the r-th smallest id.
    */
  def searchAssembled(
      sensors: Array[CompSensor],
      edges: Array[CompEdge],
      nT: Int,
      params: CapParams,
      useNaive: Boolean,
      roots: Int => Boolean = _ => true,
  ): Seq[Cap] = {
    if (sensors.length < 2) return Nil
    val ordered = sensors.sortBy(_.id)
    val idx = ordered.iterator.map(_.id).zipWithIndex.toMap
    val events = ordered.map { s =>
      val plus = Bits.empty(nT)
      s.plus.foreach(Bits.set(plus, _))
      val minus = Bits.empty(nT)
      s.minus.foreach(Bits.set(minus, _))
      SensorEvents(s.id, s.attribute, plus, minus)
    }
    val adj = Array.fill(events.length)(Set.newBuilder[Int])
    edges.foreach { e =>
      // Edges may touch sensors pruned for lack of support; skip those.
      (idx.get(e.src), idx.get(e.dst)) match {
        case (Some(a), Some(b)) if a != b => adj(a) += b; adj(b) += a
        case _                            =>
      }
    }
    val adjArr = adj.map(_.result().toArray.sorted)
    if (useNaive) NaiveSearch.enumerate(events, adjArr, params, roots)
    else CapSearch.enumerate(events, adjArr, params, roots)
  }
}
