package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuilder
import scala.concurrent.Await
import scala.concurrent.duration.Duration

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}
import org.apache.spark.sql.classic.ClassicConversions.castToImpl
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.types.UTF8String

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

/** One row of the sensor registry (`location.csv`); a null coordinate is `None`. */
final case class SensorLocation(id: String, attribute: String, lat: Option[Double], lon: Option[Double])

/** One sensor's readings on the time grid, in no particular order: each
  * reading's grid index, its value, and whether the value is present
  * (false for a null reading).
  */
final class GridSeries(val t: Array[Int], val values: Array[Double], val present: Array[Boolean])
    extends Serializable

/** End-to-end MISCELA pipeline (Section 2.2).
  *
  * Spark touches only the measurement records, the one input that is big
  * (millions of rows); everything derived from them is small (at most
  * thousands of sensors and timestamps) and is assembled on the driver:
  *
  *  - stages 1–2 run as one shuffle of per-sensor primitive arrays (each
  *    input partition's readings of a sensor), partitioned by sensor over
  *    every core. A first job reads each shuffled partition's distinct
  *    timestamps, which the driver merges into the time grid
  *    ([[TimeIndex]]); a second job over the same shuffle output maps each
  *    sensor's readings onto the grid, then sorts, forward-fills and
  *    smooths the series ([[LinearSegmentation.series]]) and diffs it
  *    against ε ([[EvolvingTimestamps.events]]). The plus/minus index
  *    lists of every sensor that evolves at all are collected. A sensor
  *    with fewer than ψ evolving timestamps can never appear in a CAP (a
  *    set's support is bounded by each member's own support), so the
  *    driver drops it before stage 3. Neither the shuffle nor the grid
  *    depends on the parameters, and the lists depend only on ε and δ. So
  *    for a persisted `data` frame the shuffle and grid are kept while it
  *    stays persisted, and so are the lists of the last (ε, δ), keyed by
  *    the frame's Spark cache entry plus the exact (ε, δ) pair. A later
  *    call with another (ε, δ) runs only the second job, without the
  *    shuffle's map stage; a call that changes only ψ, μ, η, maxSensors or
  *    the sign policy runs no stage 1–2 job at all;
  *  - stage 3 runs on the driver over the collected sensor registry
  *    ([[registry]], collected once for a persisted `locations` frame):
  *    the η-proximity join ([[SpatialJoin.pairs]]) and union-find
  *    components ([[ConnectedComponents.labels]]);
  *  - stage 4 runs on the driver's cores, with no Spark job: it reads the
  *    bitsets of at most a few thousand sensors. Search subtrees under
  *    different roots are independent ([[CapSearch]]), so the unit of work
  *    is a (component, root) pair: the units of the components with at
  *    least two sensors are numbered in component order and dealt
  *    round-robin to min(defaultParallelism, units) shares ([[deal]]),
  *    each run as one task of a [[ForkJoin]]. One large component is thus
  *    searched on every core, and many small ones share a few threads.
  *    Each task puts its CAPs in its own [[CapTable.Builder]], over one
  *    names array that the call fixes first, and sorts its table;
  *    [[CapTable.merge]] joins the tasks' tables.
  *
  * The temporal chart's series ([[series]]) are read off the same stage
  * 1–2 shuffle, by one job over only the shuffled partitions that hold the
  * wanted sensors; the shuffle's `HashPartitioner` names them.
  */
object Miscela {

  /** One sensor's readings as primitive arrays: epoch-µs times, values,
    * and whether each value is present (false for a null reading). Either
    * one input partition's share of the sensor or, merged, all of it.
    */
  private final class Readings(val micros: Array[Long], val values: Array[Double], val present: Array[Boolean])
      extends Serializable

  /** Map side of stages 1–2: one input partition's (id, epoch µs, value)
    * rows, grouped by sensor.
    */
  private def bySensor(rows: Iterator[Row]): Iterator[(String, Readings)] = {
    val parts = mutable.HashMap.empty[String, (ArrayBuilder.ofLong, ArrayBuilder.ofDouble, ArrayBuilder.ofBoolean)]
    rows.foreach { r =>
      val (micros, values, present) = parts.getOrElseUpdate(r.getString(0),
        (new ArrayBuilder.ofLong, new ArrayBuilder.ofDouble, new ArrayBuilder.ofBoolean))
      micros += r.getLong(1)
      values += (if (r.isNullAt(2)) 0.0 else r.getDouble(2))
      present += !r.isNullAt(2)
    }
    parts.iterator.map { case (id, (micros, values, present)) =>
      id -> new Readings(micros.result(), values.result(), present.result())
    }
  }

  /** Reduce side of stages 1–2: each sensor of one shuffled partition with
    * its partials from every input partition concatenated.
    */
  private def merged(parts: Iterator[(String, Readings)]): Iterator[(String, Readings)] =
    parts.toSeq.groupBy(_._1).iterator.map { case (id, ps) =>
      val rs = ps.map(_._2)
      id -> new Readings(Array.concat(rs.map(_.micros): _*), Array.concat(rs.map(_.values): _*),
        Array.concat(rs.map(_.present): _*))
    }

  /** Values computed from one frame's rows alone, or from its rows and a
    * key, kept while that frame stays persisted. The frame's part of the
    * key is its entry in Spark's cache, its `InMemoryRelation`, which
    * `unpersist()` drops and a later `persist()` replaces with a new one,
    * so a value is never served for rows read before that. A frame that is
    * not persisted has no entry and gets a fresh value on every call. One
    * value is kept, for the last (persisted frame, key) seen; a call on
    * another persisted frame, or with another key, replaces it. Concurrent
    * callers build under one lock, so a second caller waits for the value
    * the first one builds.
    */
  private final class PerPersistedFrame[K, A] {
    private var kept: Option[(AnyRef, K, A)] = None

    def apply(frame: DataFrame, key: K)(build: => A): A = {
      val ds = castToImpl(frame)
      ds.sparkSession.sharedState.cacheManager.lookupCachedData(ds) match {
        case None => build
        case Some(entry) =>
          synchronized {
            kept match {
              case Some((cached, k, value)) if (cached eq entry.cachedRepresentation) && k == key => value
              case _ =>
                val value = build
                kept = Some((entry.cachedRepresentation, key, value))
                value
            }
          }
      }
    }
  }

  /** The part of stages 1–2 that no parameter changes: each sensor's
    * readings shuffled to one partition, and the time grid.
    *
    * Each input partition's readings cross one shuffle as per-sensor
    * partials. The shuffle is partitioned by sensor over defaultParallelism
    * partitions, as an RDD so that adaptive execution cannot coalesce it
    * into one task. One job collects each partition's distinct timestamps,
    * which the driver merges into the grid. For a persisted frame both are
    * kept ([[PerPersistedFrame]]): a later job over the kept RDD reads its
    * shuffle files, and Spark skips the map stage. No block is persisted.
    */
  private def prepare(data: DataFrame): (RDD[(String, Readings)], Array[Long]) = preparedData(data, ()) {
    val shuffled = data
      .select(col("id").cast("string"), unix_micros(col("time")), col("data").cast("double"))
      .rdd
      .mapPartitions(bySensor)
      .partitionBy(new HashPartitioner(data.sparkSession.sparkContext.defaultParallelism))
    val perPartition = shuffled
      .mapPartitions(ps => Iterator(TimeIndex.grid(Array.concat(ps.map(_._2.micros).toSeq: _*))))
      .collect()
    (shuffled, TimeIndex.grid(perPartition.flatten))
  }

  private val preparedData = new PerPersistedFrame[Unit, (RDD[(String, Readings)], Array[Long])]

  /** Stages 1–2 for every sensor of `data` (id, attribute, time, data):
    * (id, plus, minus) indices on the time grid of its evolving timestamps,
    * for the sensors with at least ψ of them, and the number of timestamps
    * on the grid. One job over the shuffled readings ([[prepare]]) runs
    * the stage 1–2 kernel per sensor and collects the lists of every sensor
    * with an evolving timestamp. They depend on ε and δ alone, so for a
    * persisted frame the lists of the last (ε, δ) are kept
    * ([[PerPersistedFrame]]) and a call with the same pair runs no job.
    * The ψ prune runs on the driver, over the kept lists.
    */
  private def evolution(data: DataFrame, params: CapParams): (Array[(String, Array[Int], Array[Int])], Int) = {
    val (evolved, nT) = evolvedData(data, (params.epsilon, params.delta)) {
      val (shuffled, grid) = prepare(data)
      val evolved = shuffled
        .mapPartitions(merged)
        .flatMap { case (id, r) =>
          val t = r.micros.map(TimeIndex.indexOf(grid, _))
          val (plus, minus) =
            EvolvingTimestamps.events(LinearSegmentation.series(t, r.values, r.present, params.delta), params.epsilon)
          if (plus.isEmpty && minus.isEmpty) None else Some((id, plus, minus))
        }
        .collect()
      (evolved, grid.length)
    }
    (evolved.filter(s => s._2.length + s._3.length >= params.psi), nT)
  }

  private val evolvedData = new PerPersistedFrame[(Double, Double), (Array[(String, Array[Int], Array[Int])], Int)]

  /** The readings of each sensor in `ids` that `data` (id, attribute,
    * time, data) holds, indexed on the time grid, with `onGrid` of that
    * grid. One job over the shuffled readings ([[prepare]]) runs one task
    * per partition that the shuffle's partitioner assigns a wanted id to;
    * each task keeps only the wanted sensors' partials before merging them.
    * `onGrid` runs on the calling thread while the job runs, and the job is
    * cancelled if it throws. On a persisted frame the shuffle is kept, so
    * the job reads its files and runs no map stage. With no ids, no job
    * runs and `onGrid` gets the empty grid. A failed job's exception is
    * rethrown as it is.
    */
  def series[A](data: DataFrame, ids: Seq[String])(onGrid: Array[Long] => A): (A, Map[String, GridSeries]) =
    if (ids.isEmpty) (onGrid(Array.emptyLongArray), Map.empty)
    else {
      val (shuffled, grid) = prepare(data)
      val wanted = ids.toSet
      val partitions = wanted.toSeq.map(shuffled.partitioner.get.getPartition).distinct.sorted
      val fetched = new Array[Array[(String, GridSeries)]](partitions.length)
      val job = data.sparkSession.sparkContext.submitJob(shuffled, (ps: Iterator[(String, Readings)]) =>
        merged(ps.filter(p => wanted(p._1))).map { case (id, r) =>
          id -> new GridSeries(r.micros.map(TimeIndex.indexOf(grid, _)), r.values, r.present)
        }.toArray, partitions, (i: Int, sensors: Array[(String, GridSeries)]) => fetched(i) = sensors, ())
      try {
        val meanwhile = onGrid(grid)
        Await.result(job, Duration.Inf)
        (meanwhile, fetched.iterator.flatten.toMap)
      } catch {
        case e: Throwable =>
          if (!job.isCompleted) job.cancel()
          throw e
      }
    }

  /** The sensor registry `locations` (id, attribute, lat, lon), collected,
    * in id order by Spark's string order (UTF-8 bytes, i.e. code points).
    * Stage 3 and the GeoJSON layer both read it; for a persisted frame it
    * is collected once ([[PerPersistedFrame]]).
    */
  def registry(locations: DataFrame): IndexedSeq[SensorLocation] = collectedRegistry(locations, ()) {
    def coordinate(r: Row, i: Int) = if (r.isNullAt(i)) None else Some(r.getDouble(i))
    locations
      .select(col("id").cast("string"), col("attribute").cast("string"),
        col("lat").cast("double"), col("lon").cast("double"))
      .collect()
      .map(r => (UTF8String.fromString(r.getString(0)),
        SensorLocation(r.getString(0), r.getString(1), coordinate(r, 2), coordinate(r, 3))))
      .sortWith((a, b) => a._1.compareTo(b._1) < 0)
      .map(_._2)
      .toIndexedSeq
  }

  private val collectedRegistry = new PerPersistedFrame[Unit, IndexedSeq[SensorLocation]]

  /** Stages 1–3 on the driver: each component holding a sensor that
    * survived the ψ prune, as (sensors, edges between them), in component
    * order, plus the number of timestamps on the global grid. Harnesses
    * that time the search stage in isolation (T3) call it directly.
    */
  def assembleComponents(
      data: DataFrame,
      locations: DataFrame,
      params: CapParams,
  ): (Seq[(Array[CompSensor], Array[CompEdge])], Int) = {
    val (evolved, nT) = evolution(data, params)
    val kept = evolved.map(s => s._1 -> s).toMap
    val locs = registry(locations)
    val sites = locs.collect { case SensorLocation(id, _, Some(lat), Some(lon)) => (id, lat, lon) }
    val edges = SpatialJoin.pairs(sites, params.etaKm)
    val component = ConnectedComponents.labels(locs.map(_.id), edges.map(e => (e._1, e._2)))

    // A sensor without a location has no place in the η-graph; drop it.
    val sensors = locs.collect { case l if kept.contains(l.id) =>
      val (_, plus, minus) = kept(l.id)
      CompSensor(component(l.id), l.id, l.attribute, plus.toSeq, minus.toSeq)
    }
    val edgesOf = edges
      .collect { case (src, dst, _) if kept.contains(src) && kept.contains(dst) => CompEdge(component(src), src, dst) }
      .groupBy(_.component)
    val comps = sensors.groupBy(_.component).toSeq.sortBy(_._1).map { case (c, members) =>
      (members.toArray, edgesOf.getOrElse(c, Nil).toArray)
    }
    (comps, nT)
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
    val (comps, nT) = assembleComponents(data, locations, params)
    (comps.flatMap(_._1).toDS(), comps.flatMap(_._2).toDS(), nT)
  }

  /** Full CAP mining: all four stages, as one [[CapTable]] in export
    * order. On `data` and `locations` frames that are persisted and were
    * mined before, this runs no Spark job if the last call mined the same
    * `data` frame with the same ε and δ, and one job, the stage 1–2 kernel,
    * otherwise (see [[Miscela]]). Stage 4 runs on the driver's threads
    * ([[search]]).
    *
    * @param data      measurement records (id, attribute, time, data)
    * @param locations sensor registry (id, attribute, lat, lon)
    * @param useNaive  swap the pruned CAP search for the brute-force
    *                  baseline (identical output, used by the T3 bench)
    * @return all CAPs of the dataset under `params`
    * @throws IllegalStateException if the CAPs outgrow the heap's budget
    *         (see [[search]])
    * @throws InterruptedException if the caller is interrupted while it
    *         waits for stage 4's threads
    */
  def mine(
      spark: SparkSession,
      data: DataFrame,
      locations: DataFrame,
      params: CapParams,
      useNaive: Boolean = false,
  ): CapTable = {
    val (comps, nT) = assembleComponents(data, locations, params)
    search(comps, nT, params, useNaive, spark.sparkContext.defaultParallelism)
  }

  /** Stage 4's units of work: the (component, root) pairs of the components
    * in `comps` with at least two sensors (a lone sensor has no pattern),
    * numbered in component order and dealt to shares by [[ForkJoin.deal]].
    * Share j of k holds the units whose number is j modulo k, as (index
    * into `comps`, root).
    */
  private[core] def deal(comps: Seq[(Array[CompSensor], Array[CompEdge])], parallelism: Int): Seq[Seq[(Int, Int)]] = {
    val units = (for {
      (c, i) <- comps.iterator.zipWithIndex if c._1.length >= 2
      root <- c._1.indices
    } yield (i, root)).toVector
    ForkJoin.deal(units.length, parallelism).map(_.map(units))
  }

  /** Heap bytes allowed per CAP member while stage 4 runs. A member costs 4
    * bytes in a builder, but the builder's growth, its sorted table, the
    * merge, the cache entry and the payloads each copy it again.
    */
  private val heapBytesPerMember = 64

  /** Stage 4 on the driver: one [[ForkJoin]] task per share of [[deal]]
    * (threads `cap-search-j`, the calling thread taking share 0). Each task
    * fills its own [[CapTable.Builder]], searching each component it holds
    * a root of over those roots only, and sorts its table. The builders
    * share one names array, the sorted distinct ids and attributes of the
    * searched components, and each component's bitsets and adjacency are
    * built once, by the first thread that reads them ([[Searchable]]).
    * [[CapTable.merge]] joins the tables once every thread has ended.
    *
    * The builders charge their members to one budget, `memberBudget`, by
    * default the heap's maximum size over [[heapBytesPerMember]]. It is
    * halted when spent and by the fork/join's `stop`; a halted task stops
    * at its next 1,024 CAPs or component and yields no table. A spent
    * budget throws an `IllegalStateException` that says how many CAPs were
    * reached and which parameters to change, rather than the heap running
    * out; a failing unit or an interrupt surfaces by [[ForkJoin]]'s rule.
    */
  private[core] def search(
      comps: Seq[(Array[CompSensor], Array[CompEdge])],
      nT: Int,
      params: CapParams,
      useNaive: Boolean,
      parallelism: Int,
      memberBudget: Long = Runtime.getRuntime.maxMemory / heapBytesPerMember,
  ): CapTable = {
    val components = comps.toIndexedSeq.map { case (sensors, edges) => new Searchable(sensors, edges, nT) }
    val names = comps.iterator.filter(_._1.length >= 2)
      .flatMap(_._1.iterator.flatMap(s => Iterator(s.id, s.attribute))).distinct.toArray.sorted
    val budget = new CapTable.Budget(memberBudget)
    // Each share's table, or the number of CAPs it had reached when halted.
    val searched = ForkJoin("cap-search", deal(comps, parallelism).map { share => () =>
      val builder = new CapTable.Builder(names, budget)
      try {
        share.groupBy(_._1).toSeq.sortBy(_._1).foreach { case (c, units) =>
          if (budget.halted) throw CapTable.Halted
          searchInto(components(c), params, useNaive, builder, units.map(_._2).toSet)
        }
        Right(builder.result())
      } catch { case CapTable.Halted => Left(builder.length) }
    }, stop = () => budget.halt())
    if (budget.exceeded)
      throw new IllegalStateException(
        s"CAP search stopped at ${searched.map(_.fold(_.toLong, _.length.toLong)).sum} CAPs: their members passed " +
          s"the budget of ${budget.limit} for a ${Runtime.getRuntime.maxMemory / 1000000} MB heap. Raise psi (now " +
          s"${params.psi}), or lower eta (now ${params.etaKm} km), mu (now ${params.mu}) or maxSensors " +
          s"(now ${params.maxSensors}).")
    CapTable.merge(searched.collect { case Right(table) => table })
  }

  /** One assembled component as the search reads it (see
    * [[assembleComponents]]): its sensors in id order with their bitsets,
    * and its adjacency over those indices, so root r is the sensor with the
    * r-th smallest id. They are built on first use, by the thread that
    * reads them first; the others wait for them. A build that throws
    * throws on that thread, and is tried again by the next reader.
    */
  private final class Searchable(sensors: Array[CompSensor], edges: Array[CompEdge], nT: Int) {
    lazy val (events, adj) = {
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
      (events, adj.map(_.result().toArray.sorted))
    }
  }

  /** Stage 4 on one assembled component (see [[assembleComponents]]), on
    * the calling thread alone: [[search]] with parallelism 1, under the
    * same CAP budget. Harnesses that time the search of each component
    * (T3, the benchmark's traced path) call it.
    */
  def searchAssembled(
      sensors: Array[CompSensor],
      edges: Array[CompEdge],
      nT: Int,
      params: CapParams,
      useNaive: Boolean,
  ): CapTable = search(Seq(sensors -> edges), nT, params, useNaive, parallelism = 1)

  /** Runs the chosen search on `component` over the selected roots, adding
    * the CAPs to `into`.
    */
  private def searchInto(
      component: Searchable,
      params: CapParams,
      useNaive: Boolean,
      into: CapTable.Builder,
      roots: Int => Boolean,
  ): Unit =
    if (useNaive) NaiveSearch.enumerate(component.events, component.adj, params, roots).foreach(into += _)
    else CapSearch.enumerateInto(component.events, component.adj, params, into, roots)
}
