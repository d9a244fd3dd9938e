package repro.core

import java.lang.management.ManagementFactory
import java.lang.ref.WeakReference
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import java.util.concurrent.{CountDownLatch, FutureTask, TimeUnit}

import scala.util.Random

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, spark_partition_id}

import repro.{Oracle, SparkSpec}
import repro.cache.CapCache
import repro.data.SmartCityData
import repro.geo.SpatialJoin
import repro.graph.ConnectedComponents

/** Pipeline-level tests of [[Miscela]] on hand-built micro-datasets. */
class MiscelaSpec extends SparkSpec {
  import TinyWorld._

  private val n = 40
  private val jumpsA = Map(3 -> 10.0, 8 -> -10.0, 15 -> 10.0, 22 -> 10.0, 30 -> -10.0)
  private val jumpsB = Map(5 -> 10.0, 18 -> -10.0)

  private def world() = {
    val data = dataDf(spark, Map(
      // Cluster 1 (Santander-ish): temp + traffic co-evolve via jumpsA.
      ("a1", "temperature") -> stepSeries(n, 10, jumpsA),
      ("a2", "trafficVolume") -> stepSeries(n, 100, jumpsA),
      ("a3", "humidity") -> stepSeries(n, 60, jumpsB),
      // Cluster 2, far away: light + temp co-evolve via jumpsB.
      ("b1", "light") -> stepSeries(n, 300, jumpsB),
      ("b2", "temperature") -> stepSeries(n, 12, jumpsB),
    ))
    val locs = locDf(spark, Seq(
      ("a1", "temperature", 43.4600, -3.8000),
      ("a2", "trafficVolume", 43.4608, -3.8001),
      ("a3", "humidity", 43.4604, -3.8004),
      ("b1", "light", 43.5600, -3.9000),
      ("b2", "temperature", 43.5608, -3.9001),
    ))
    (data, locs)
  }

  test("stages 1-2 detect exactly the planted jumps") {
    val (data, locs) = world()
    val events = evolving(spark, data, locs, CapParams(epsilon = 1.0))
    val expectA = jumpsA.map { case (t, d) => (t, if (d > 0) 1 else -1) }.toSet
    assert(events("a1") == expectA)
    assert(events("b1").map(_._1) == jumpsB.keySet)
  }

  test("stage 3 separates the two clusters") {
    val (_, locs) = world()
    val comps = ConnectedComponents.run(spark, locs.select(col("id")), SpatialJoin.edges(spark, locs, 0.5))
    val byComp = comps.collect().map(r => (r.getString(0), r.getString(1)))
      .groupBy(_._2).values.map(_.map(_._1).toSet).toSet
    assert(byComp == Set(Set("a1", "a2", "a3"), Set("b1", "b2")))
  }

  test("mine discovers one planted pattern per cluster, nothing across clusters") {
    val (data, locs) = world()
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    val caps = Miscela.mine(spark, data, locs, params).collect().toSeq
    assert(caps.exists(c => c.sensors == Seq("a1", "a2") &&
      c.attributes == Seq("temperature", "trafficVolume") && c.support == jumpsA.size))
    assert(caps.exists(c => c.sensors == Seq("b1", "b2") &&
      c.attributes == Seq("light", "temperature") && c.support == jumpsB.size))
    // a3 co-evolves with b-cluster (same jumpsB) but is spatially apart.
    assert(!caps.exists(c => c.sensors.exists(_.startsWith("a")) && c.sensors.exists(_.startsWith("b"))))
  }

  test("mine with useNaive returns identical results") {
    val (data, locs) = world()
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    def canon(caps: Seq[Cap]) = caps.map(c => (c.attributes, c.sensors, c.support))
      .sortBy(_.toString)
    val fast = canon(Miscela.mine(spark, data, locs, params).collect().toSeq)
    val slow = canon(Miscela.mine(spark, data, locs, params, useNaive = true).collect().toSeq)
    assert(fast == slow && fast.nonEmpty)
  }

  test("sensors with fewer than psi events are pruned before the search") {
    val (data, locs) = world()
    // jumpsB has 2 events; psi = 3 excludes the b-cluster and a3 entirely.
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 3, maxSensors = 3)
    val caps = Miscela.mine(spark, data, locs, params).collect().toSeq
    assert(caps.nonEmpty)
    assert(caps.forall(_.sensors.forall(s => s == "a1" || s == "a2")))
  }

  test("nulls are forward-filled, shifting the perceived jump") {
    // A jump at t=5 hidden behind a null at t=5 surfaces at t=6.
    val vs: Seq[Option[Double]] = Seq(Some(1.0), Some(1.0), Some(1.0), Some(1.0), Some(1.0),
      None, Some(11.0), Some(11.0), Some(11.0), Some(11.0))
    val other: Seq[Option[Double]] = Seq(Some(5.0), Some(5.0), Some(5.0), Some(5.0), Some(5.0),
      Some(5.0), Some(15.0), Some(15.0), Some(15.0), Some(15.0))
    val data = dataDf(spark, Map(("x", "temperature") -> vs, ("y", "trafficVolume") -> other))
    val locs = locDf(spark, Seq(("x", "temperature", 0.0, 0.0), ("y", "trafficVolume", 0.0001, 0.0)))
    val params = CapParams(epsilon = 1.0, etaKm = 1.0, psi = 1, maxSensors = 2)
    val caps = Miscela.mine(spark, data, locs, params).collect().toSeq
    assert(caps.exists(c => c.sensors == Seq("x", "y") && c.support == 1))
  }

  test("empty CAP result when nothing co-evolves") {
    val data = dataDf(spark, Map(
      ("x", "a1") -> stepSeries(10, 0, Map(2 -> 10.0)),
      ("y", "a2") -> stepSeries(10, 0, Map(7 -> 10.0)),
    ))
    val locs = locDf(spark, Seq(("x", "a1", 0.0, 0.0), ("y", "a2", 0.0001, 0.0)))
    val caps = Miscela.mine(spark, data, locs, CapParams(etaKm = 1.0, psi = 1)).collect()
    assert(caps.isEmpty)
  }

  test("searchComponent ignores edges touching pruned sensors and self-loops") {
    val nT = 16
    val s = Array(
      CompSensor("c", "a", "t1", Seq(1, 2), Nil),
      CompSensor("c", "b", "t2", Seq(1, 2), Nil),
    )
    val e = Array(
      CompEdge("c", "a", "b"),
      CompEdge("c", "a", "ghost"), // pruned sensor
      CompEdge("c", "a", "a"),     // degenerate
    )
    val caps = Miscela.searchAssembled(s, e, nT, CapParams(psi = 2, maxSensors = 2), useNaive = false)
    assert(caps == Seq(Cap(Seq("t1", "t2"), Seq("a", "b"), 2)))
  }

  test("assembleComponents groups sensors and edges consistently with mine") {
    val (data, locs) = world()
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    val (comps, nT) = Miscela.assembleComponents(data, locs, params)
    assert(comps.size == 2)
    val viaAssembly = comps.flatMap { case (s, e) =>
      Miscela.searchAssembled(s, e, nT, params, useNaive = false)
    }.map(c => (c.attributes, c.sensors, c.support)).sortBy(_.toString)
    val viaMine = Miscela.mine(spark, data, locs, params).collect().toSeq
      .map(c => (c.attributes, c.sensors, c.support)).sortBy(_.toString)
    assert(viaAssembly == viaMine)
  }

  test("routed holds assembleComponents' sensors and edges, flattened, and its nT") {
    val (data, locs) = world()
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    val (comps, nT) = Miscela.assembleComponents(data, locs, params)
    val (sensors, edges, routedNT) = Miscela.routed(spark, data, locs, params)
    assert(sensors.collect().toSeq == comps.flatMap(_._1))
    val routedEdges = edges.collect().toSeq
    assert(routedEdges.nonEmpty && routedEdges == comps.flatMap(_._2))
    assert(routedNT == nT)
  }

  test("delta smoothing suppresses sub-delta wiggles end to end") {
    // Wiggles of ±2 would evolve at epsilon=1, but delta=3 smoothing
    // flattens them; the 10-step survives.
    val wiggly: Seq[Option[Double]] =
      Seq(0.0, 2.0, 0.0, 2.0, 0.0, 12.0, 14.0, 12.0, 14.0, 12.0).map(Some(_))
    val partner: Seq[Option[Double]] =
      Seq(0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0, 10.0).map(Some(_))
    val data = dataDf(spark, Map(("w", "temperature") -> wiggly, ("p", "trafficVolume") -> partner))
    val locs = locDf(spark, Seq(("w", "temperature", 0.0, 0.0), ("p", "trafficVolume", 0.0001, 0.0)))
    val smoothedParams = CapParams(epsilon = 1.0, etaKm = 1.0, psi = 1, delta = 3.0, maxSensors = 2)
    val caps = Miscela.mine(spark, data, locs, smoothedParams).collect().toSeq
    assert(caps.exists(c => c.sensors == Seq("p", "w")))
    caps.foreach(c => assert(c.support <= 2, s"smoothing should leave at most the step, got $c"))
  }

  private def canon(caps: Seq[Cap]) = caps.map(c => (c.attributes, c.sensors, c.support)).sortBy(_.toString)

  test("oracle: fused stages 1-2 at delta = 0 equal the DuckDB index/fill/lag query") {
    import spark.implicits._
    // Hour 8 has no record at all (a gap in the grid); "a" skips hours 4
    // and 7, "b" starts with nulls, "c" is short with an interior null, "d"
    // is all nulls. The 1.0 step of "a" at hour 2 sits exactly on epsilon.
    // Rows arrive newest first, so the pass must sort each series.
    val rows: Seq[(String, Int, Option[Double])] =
      Seq(0 -> 1.0, 1 -> 3.0, 2 -> 4.0, 3 -> 1.5, 5 -> 1.5, 6 -> 9.0, 9 -> 8.5).map { case (t, v) => ("a", t, Some(v)) } ++
        Seq(None, None, Some(2.0), Some(2.0), None, Some(-3.0), Some(-3.0), None, Some(4.0))
          .zip(Seq(0, 1, 2, 3, 4, 5, 6, 7, 9)).map { case (v, t) => ("b", t, v) } ++
        Seq(2 -> Some(10.0), 3 -> None, 4 -> Some(7.0)).map { case (t, v) => ("c", t, v) } ++
        Seq(0, 1, 2).map(t => ("d", t, Option.empty[Double]))
    val data = rows.reverse.map { case (id, t, v) => (id, "temperature", ts(t), v) }.toDF("id", "attribute", "time", "data")
    val locs = locDf(spark, Seq("a", "b", "c", "d").map(id => (id, "temperature", 43.46, -3.8)))
    val events = evolving(spark, data, locs, CapParams(epsilon = 1.0, delta = 0.0)).toSeq
      .flatMap { case (id, es) => es.map { case (t, sign) => (id, t, sign) } }
    Oracle.assertEquivalent(
      events.toDF("id", "tIdx", "sign"),
      """WITH indexed AS (
        |  SELECT id, CAST(dense_rank() OVER (ORDER BY CAST(time AS TIMESTAMP)) - 1 AS INTEGER) AS tIdx,
        |         CAST(data AS DOUBLE) AS v
        |  FROM records
        |), filled AS (
        |  SELECT id, tIdx, last_value(v IGNORE NULLS) OVER (
        |           PARTITION BY id ORDER BY tIdx ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS v
        |  FROM indexed
        |), diffs AS (
        |  SELECT id, tIdx, v - lag(v) OVER (PARTITION BY id ORDER BY tIdx) AS delta
        |  FROM filled WHERE v IS NOT NULL
        |)
        |SELECT id, tIdx, CASE WHEN delta > 0 THEN 1 ELSE -1 END AS sign
        |FROM diffs WHERE abs(delta) > 1.0""".stripMargin,
      "records" -> data,
    )
  }

  test("a chain-shaped deployment along a road is one component; mine equals naive") {
    // 60 sensors 0.33 km apart on a meridian: with eta = 0.5 km each one
    // touches only its two neighbours, so the eta-graph is a 60-hop path.
    val attrs = Seq("temperature", "trafficVolume", "humidity")
    val sensors = (0 until 60).map(i => (f"r$i%02d", attrs(i % 3)))
    val data = dataDf(spark, sensors.map(s => s -> stepSeries(n, 10, jumpsA)).toMap)
    val locs = locDf(spark, sensors.zipWithIndex.map { case ((id, a), i) => (id, a, 43.4 + i * 0.003, -3.8) })
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    val (comps, _) = Miscela.assembleComponents(data, locs, params)
    assert(comps.size == 1 && comps.head._1.length == 60 && comps.head._2.length == 59)
    val fast = canon(Miscela.mine(spark, data, locs, params).collect().toSeq)
    val slow = canon(Miscela.mine(spark, data, locs, params, useNaive = true).collect().toSeq)
    // Every path of 2 or 3 consecutive sensors co-evolves with 2-3 attributes.
    assert(fast.size == 59 + 58 && fast == slow)
  }

  // Edge inputs the paper allows: each must give the right (maybe empty)
  // CAP set through the whole pipeline.
  private val co = stepSeries(n, 10, jumpsA)
  private val edgeParams = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
  private def mined(data: DataFrame, locs: DataFrame, params: CapParams = edgeParams, useNaive: Boolean = false) =
    Miscela.mine(spark, data, locs, params, useNaive).collect().toSeq

  test("edge input: a single sensor yields no CAP") {
    val data = dataDf(spark, Map(("x", "temperature") -> co))
    assert(mined(data, locDf(spark, Seq(("x", "temperature", 43.46, -3.8)))).isEmpty)
  }

  test("edge input: an all-null series never evolves and is left out") {
    val data = dataDf(spark, Map(
      ("x", "temperature") -> co, ("y", "light") -> co, ("z", "humidity") -> Seq.fill(n)(None)))
    val locs = locDf(spark, Seq(
      ("x", "temperature", 43.46, -3.8), ("y", "light", 43.4601, -3.8), ("z", "humidity", 43.4602, -3.8)))
    assert(canon(mined(data, locs)) == canon(Seq(Cap(Seq("light", "temperature"), Seq("x", "y"), jumpsA.size))))
  }

  test("edge input: no eta-edges at all yields no CAP") {
    val data = dataDf(spark, Map(("x", "temperature") -> co, ("y", "light") -> co))
    val locs = locDf(spark, Seq(("x", "temperature", 43.46, -3.8), ("y", "light", 44.46, -3.8)))
    assert(mined(data, locs).isEmpty)
  }

  test("edge input: psi above the number of timestamps yields no CAP") {
    val data = dataDf(spark, Map(("x", "temperature") -> co, ("y", "light") -> co))
    val locs = locDf(spark, Seq(("x", "temperature", 43.46, -3.8), ("y", "light", 43.4601, -3.8)))
    assert(mined(data, locs).nonEmpty)
    assert(mined(data, locs, edgeParams.copy(psi = n + 1)).isEmpty)
  }

  test("edge input: sensors at duplicate coordinates are neighbours") {
    val data = dataDf(spark, Map(("x", "temperature") -> co, ("y", "light") -> co))
    val locs = locDf(spark, Seq(("x", "temperature", 43.46, -3.8), ("y", "light", 43.46, -3.8)))
    assert(mined(data, locs) == Seq(Cap(Seq("light", "temperature"), Seq("x", "y"), jumpsA.size)))
  }

  test("edge input: a sensor missing from locations is dropped") {
    val data = dataDf(spark, Map(("x", "temperature") -> co, ("y", "light") -> co, ("ghost", "humidity") -> co))
    val locs = locDf(spark, Seq(("x", "temperature", 43.46, -3.8), ("y", "light", 43.4601, -3.8)))
    assert(mined(data, locs) == Seq(Cap(Seq("light", "temperature"), Seq("x", "y"), jumpsA.size)))
  }

  test("edge input: empty data yields no CAP") {
    val locs = locDf(spark, Seq(("x", "temperature", 43.46, -3.8), ("y", "light", 43.4601, -3.8)))
    assert(mined(dataDf(spark, Map.empty), locs).isEmpty)
  }

  test("stage 4 deals its units to at most defaultParallelism threads, none for lone sensors, and runs no Spark job") {
    // 40 sensors 100 km apart plus one 3-sensor cluster: 41 components, but
    // only the cluster can hold a pattern, and it has 3 (component, root) units.
    val attrs = Seq("temperature", "trafficVolume", "humidity")
    val isolated = (0 until 40).map(i => (f"i$i%02d", attrs(i % 3), 10.0 + i, 20.0))
    val cluster = Seq(("c1", "temperature", 43.46, -3.8), ("c2", "trafficVolume", 43.4601, -3.8),
      ("c3", "humidity", 43.4602, -3.8))
    val sites = isolated ++ cluster
    val data = dataDf(spark, sites.map(s => (s._1, s._2) -> co).toMap)
    val locs = locDf(spark, sites)
    val parallelism = spark.sparkContext.defaultParallelism
    val (comps, nT) = Miscela.assembleComponents(data, locs, edgeParams)
    assert(comps.size == 41)
    val shares = Miscela.deal(comps, parallelism)
    val c = comps.indexWhere(_._1.exists(_.id == "c1"))
    assert(shares.length == math.min(parallelism, 3), s"${shares.length} threads at defaultParallelism $parallelism")
    assert(shares.flatten.sorted == Seq((c, 0), (c, 1), (c, 2)))
    val (caps, run) = observe("stage-4")(Miscela.search(comps, nT, edgeParams, useNaive = false, parallelism))
    assert(run.jobs.isEmpty, s"${run.jobs.size} Spark jobs in stage 4")
    assert(caps.nonEmpty && caps.forall(_.sensors.forall(_.startsWith("c"))))
    assert(canon(caps) == canon(mined(data, locs, edgeParams, useNaive = true)))

    // On persisted frames mined before, a cache miss runs no Spark job.
    data.persist()
    locs.persist()
    try {
      mined(data, locs)
      val cache = new CapCache(Files.createTempDirectory("stage-4-cache").toString)
      val ((table, hit), miss) = observe("stage-4-miss") {
        cache.getOrCompute(spark, "x", edgeParams)(Miscela.mine(spark, data, locs, edgeParams))
      }
      assert(!hit && table == CapTable(caps))
      assert(miss.jobs.isEmpty, s"${miss.jobs.size} Spark jobs on a miss")
    } finally {
      data.unpersist()
      locs.unpersist()
    }
  }

  /** `count` components of `size` sensors each: every pair in a component
    * is adjacent, and every sensor rises at each of `nT` timestamps, so
    * every set of at most maxSensors members with two or more attributes
    * is a CAP. Attributes cycle over three names, so a 12-sensor component
    * holds 748 CAPs at maxSensors 4.
    */
  private def cliques(count: Int, size: Int, nT: Int): Seq[(Array[CompSensor], Array[CompEdge])] =
    (0 until count).map { k =>
      val c = f"k$k%05d"
      val sensors = Array.tabulate(size)(i =>
        CompSensor(c, f"$c-$i%02d", Seq("temperature", "light", "humidity")(i % 3), 0 until nT, Nil))
      val edges = for (i <- 0 until size; j <- i + 1 until size) yield CompEdge(c, sensors(i).id, sensors(j).id)
      (sensors, edges.toArray)
    }

  private val cliqueParams = CapParams(psi = 1, mu = 3, maxSensors = 4)

  /** The threads stage 4 started that are still alive. */
  private def searchThreads() =
    Thread.getAllStackTraces.keySet.toArray(Array.empty[Thread]).filter(_.getName.startsWith("cap-search-"))

  /** Heap in use after full collections, in bytes. */
  private def heapAfterGc(): Long = {
    val heap = ManagementFactory.getMemoryMXBean
    (1 to 3).map { _ =>
      System.gc()
      Thread.sleep(100)
      heap.getHeapMemoryUsage.getUsed
    }.min
  }

  test("stage 4 stops at its CAP budget with a message that names the parameters to change") {
    val parallelism = spark.sparkContext.defaultParallelism
    val comps = cliques(40, 12, 8)
    val full = Miscela.search(comps, 8, cliqueParams, useNaive = false, parallelism)
    assert(full.length == 40 * 748)
    Seq(false, true).foreach { useNaive =>
      val e = intercept[IllegalStateException] {
        Miscela.search(comps, 8, cliqueParams, useNaive, parallelism, memberBudget = 10000)
      }
      assert(e.getMessage.matches(
        "CAP search stopped at \\d+ CAPs: their members passed the budget of 10000 for a \\d+ MB heap\\. " +
          "Raise psi \\(now 1\\), or lower eta \\(now 0\\.5 km\\), mu \\(now 3\\) or maxSensors \\(now 4\\)\\."),
        e.getMessage)
      val reached = "stopped at (\\d+) CAPs".r.findFirstMatchIn(e.getMessage).get.group(1).toInt
      assert(reached >= 1024 && reached < full.length, e.getMessage)
      assert(searchThreads().isEmpty)
    }
  }

  test("stage 4 leaves no thread or table behind, and a failing unit stops the others and surfaces as itself") {
    val parallelism = spark.sparkContext.defaultParallelism
    val nT = 8
    val good = cliques(1500, 12, nT)
    // An evolving timestamp far past the grid: building this component fails.
    val bad = (Array(CompSensor("bad", "bad-0", "light", Seq(1000), Nil), CompSensor("bad", "bad-1", "humidity", Seq(1), Nil)),
      Array(CompEdge("bad", "bad-0", "bad-1")))
    def timed[A](body: => A): (A, Long) = {
      val t0 = System.nanoTime()
      val a = body
      (a, System.nanoTime() - t0)
    }
    def failing(comps: Seq[(Array[CompSensor], Array[CompEdge])]): Long = timed {
      intercept[ArrayIndexOutOfBoundsException](Miscela.search(comps, nT, cliqueParams, useNaive = false, parallelism))
    }._2
    // A normal call, whose table is then reachable only through the weak
    // reference; with the table's size in bytes and the call's time.
    def normal(): (WeakReference[CapTable], Long, Long) = {
      val (table, ns) = timed(Miscela.search(good, nT, cliqueParams, useNaive = false, parallelism))
      assert(table.length == 1500 * 748)
      (new WeakReference(table), 4L * (table.bounds.length + table.members.length) + 8L * table.length, ns)
    }
    normal()
    val before = heapAfterGc()
    val (kept, tableBytes, fullNs) = normal()
    assert(searchThreads().isEmpty, "a search thread outlived a normal call")
    assert(heapAfterGc() - before < tableBytes / 2 && kept.get == null, "a finished table is still reachable")

    // The bad component first: its units fail at once, and the other
    // threads stop at their next component instead of searching the rest.
    val stoppedNs = failing(bad +: good)
    assert(searchThreads().isEmpty, "a search thread outlived a failing call")
    assert(stoppedNs < fullNs / 4, s"a failing call took ${stoppedNs / 1e6} ms, a whole one ${fullNs / 1e6} ms")
    // The bad component last: the other threads finish their tables first.
    val beforeFailing = heapAfterGc()
    failing(good :+ bad)
    assert(searchThreads().isEmpty, "a search thread outlived a failing call")
    assert(heapAfterGc() - beforeFailing < tableBytes / 2, "a failing call left its tables reachable")
  }

  test("an interrupted caller of stage 4 gets an InterruptedException once every search thread has ended") {
    // One 40-sensor clique dealt to 40 shares, one root each. Root 0 never
    // evolves, so the calling thread's share ends at once and its wait for
    // the helper threads, which hold the heavy roots, is interrupted.
    val nT = 8
    val (sensors, edges) = cliques(1, 40, nT).head
    sensors(0) = sensors(0).copy(plus = Nil)
    Thread.currentThread().interrupt()
    try {
      intercept[InterruptedException] {
        Miscela.search(Seq(sensors -> edges), nT, CapParams(psi = 1, mu = 40, maxSensors = 5), useNaive = false,
          parallelism = 40)
      }
      assert(searchThreads().isEmpty, "a search thread outlived an interrupted call")
    } finally Thread.interrupted()
  }

  test("property: stage 4 over one shared name index equals itself on one thread and the brute-force search") {
    // Hand-made components whose ids and attributes come from one pool of
    // names that stress the export order: an id may equal another sensor's
    // attribute, some names are prefixes of others, and some lists join to
    // the same string. Lone sensors add names that no CAP can hold.
    val pool = (CapTableSpec.trickyNames ++ CapTableSpec.colliding.flatMap(c => c.attributes ++ c.sensors)).distinct
    val rnd = new Random(17)
    val nT = 70
    def events() = (0 until nT).filter(_ => rnd.nextDouble() < 0.4)
    var found = 0
    (0 until 30).foreach { round =>
      val ids = rnd.shuffle(pool)
      val attributes = rnd.shuffle(pool).take(2 + rnd.nextInt(3))
      val sizes = Seq.fill(1 + rnd.nextInt(4))(1 + rnd.nextInt(7))
      val starts = sizes.scanLeft(0)(_ + _)
      val comps = sizes.indices.map { c =>
        val members = ids.slice(starts(c), starts(c + 1)).map { id =>
          val (plus, minus) = events().partition(_ => rnd.nextBoolean())
          CompSensor(s"c$c", id, attributes(rnd.nextInt(attributes.length)), plus, minus)
        }.toArray
        val edges = for {
          i <- members.indices; j <- members.indices if i < j && rnd.nextDouble() < 0.6
        } yield CompEdge(s"c$c", members(i).id, members(j).id)
        (members, edges.toArray)
      }
      val p = CapParams(psi = 1 + rnd.nextInt(8), mu = 1 + rnd.nextInt(3), maxSensors = 2 + rnd.nextInt(3),
        allowSingleAttribute = rnd.nextBoolean())
      val k = 2 + rnd.nextInt(7)
      val one = Miscela.search(comps, nT, p, useNaive = false, parallelism = 1)
      Seq(Miscela.search(comps, nT, p, useNaive = false, k), Miscela.search(comps, nT, p, useNaive = true, k))
        .foreach { got =>
          assert(got.names.sameElements(one.names) && got.bounds.sameElements(one.bounds) &&
            got.members.sameElements(one.members) && got.support.sameElements(one.support), s"round $round, $p, k $k")
        }
      assert(one.names.toSeq == one.flatMap(c => c.attributes ++ c.sensors).distinct.sorted, s"round $round: names")
      found += one.length
    }
    assert(found > 0, "no CAP in any round: the comparison is vacuous")
  }

  test("property: stage 4 on k threads equals stage 4 on one thread over T2's parameter grid") {
    // T2's sweeps around perfbench's Santander request, each searched on
    // one thread and on a random number of threads.
    val base = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 50, maxSensors = 4)
    val grid = Seq(0.5, 2.0, 10.5, 16.0).map(v => base.copy(epsilon = v)) ++
      Seq(0.05, 0.2, 0.5, 2.0).map(v => base.copy(etaKm = v)) ++
      Seq(20, 100, 300).map(v => base.copy(psi = v)) ++ Seq(2, 3).map(v => base.copy(mu = v))
    val rnd = new Random(16)
    val (data, locs) = santanderCopies.head
    data.persist()
    locs.persist()
    try {
      val sizes = grid.map { p =>
        val (comps, nT) = Miscela.assembleComponents(data, locs, p)
        val one = Miscela.search(comps, nT, p, useNaive = false, parallelism = 1)
        val k = 2 + rnd.nextInt(7)
        val many = Miscela.search(comps, nT, p, useNaive = false, k)
        assert(many == one && many.names.toSeq == one.names.toSeq, s"$p on $k threads")
        one.length
      }
      assert(sizes.count(_ > 0) >= grid.length / 2, sizes)
    } finally {
      data.unpersist()
      locs.unpersist()
    }
  }

  test("stages 1-2 run on every core: one shuffle, read by the grid and the kernel") {
    // At least as many sensors as cores, so every shuffled partition can
    // hold one: the kernel stage must run one task per core, not one task.
    val sc = spark.sparkContext
    val k = sc.defaultParallelism
    val attrs = Seq("temperature", "trafficVolume", "humidity")
    val sites = (0 until math.max(8, k)).map(i => (f"s$i%02d", attrs(i % 3), 43.46 + i * 0.001, -3.8))
    val data = dataDf(spark, sites.map(s => (s._1, s._2) -> co).toMap)
    val locs = locDf(spark, sites)
    val ((comps, _), run) = observe("stages-1-2")(Miscela.assembleComponents(data, locs, edgeParams))
    assert(comps.flatMap(_._1).length == sites.length)
    // A job's result stage is created after its parents, so it has the
    // job's highest stage id; every other stage submitted is a shuffle map.
    val resultStages = run.jobs.map(_.stageIds.max)
    val (results, shuffleMaps) = run.stages.partition(s => resultStages.contains(s.stageId))
    val shuffleReads = results.filter(_.parentIds.nonEmpty)
    assert(resultStages.size <= 3, s"${resultStages.size} Spark jobs")
    assert(shuffleMaps.length == 1, s"shuffle map stages run: ${shuffleMaps.map(_.name)}")
    assert(shuffleReads.nonEmpty && shuffleReads.forall(_.numTasks == math.min(k, sites.length)),
      s"tasks per shuffle-reading stage: ${shuffleReads.map(_.numTasks)} at defaultParallelism $k")
  }

  test("a sensor's readings spread over several input partitions merge into one series") {
    import spark.implicits._
    // Three sensors with jumps, nulls and a plateau; hour 8 is missing for
    // all of them (a gap in the grid).
    val rows = for {
      (id, phase) <- Seq("a" -> 0, "b" -> 3, "c" -> 5)
      t <- 0 until 24 if t != 8
    } yield (id, "temperature", ts(t),
      if ((t + phase) % 7 == 3) None else Some((((t + phase) * 5) % 11) * 0.5 + (if (t > 12) 4.0 else 0.0)))
    val single = rows.toDF("id", "attribute", "time", "data").coalesce(1)
    // Hash-partitioned by time, newest first within each partition.
    val spread = single.repartition(4, col("time")).sortWithinPartitions(col("time").desc)
    val partitionsPerSensor = spread.select(col("id"), spark_partition_id().as("p")).distinct()
      .groupBy("id").count().as[(String, Long)].collect().toMap
    assert(partitionsPerSensor.size == 3 && partitionsPerSensor.values.forall(_ >= 3), partitionsPerSensor)
    val locs = locDf(spark, Seq("a", "b", "c").map(id => (id, "temperature", 43.46, -3.8)))
    def lists(data: DataFrame, params: CapParams) = {
      val (comps, nT) = Miscela.assembleComponents(data, locs, params)
      (comps.flatMap(_._1).map(s => (s.id, s.plus, s.minus)).sortBy(_._1), nT)
    }
    Seq(CapParams(epsilon = 1.0, psi = 1), CapParams(epsilon = 0.5, delta = 0.5, psi = 1)).foreach { params =>
      val (expected, nT) = lists(single, params)
      assert(nT == 23 && expected.length == 3 && expected.forall(e => e._2.nonEmpty && e._3.nonEmpty))
      assert(lists(spread, params) == ((expected, nT)), params)
    }
  }

  /** The shuffle map stages `run` submitted: a job's result stage has the
    * job's highest stage id, and a stage whose map output is already
    * registered is skipped, not submitted.
    */
  private def shuffleMaps(run: SparkSpec.Observed) = {
    val resultStages = run.jobs.map(_.stageIds.max)
    run.stages.filterNot(s => resultStages.contains(s.stageId))
  }

  private def comparable(assembled: (Seq[(Array[CompSensor], Array[CompEdge])], Int)) =
    (assembled._1.map { case (s, e) => (s.toSeq, e.toSeq) }, assembled._2)

  test("on persisted frames a repeated call runs one Spark job and no shuffle map stage") {
    val (data, locs) = world()
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    val retuned = params.copy(psi = 3, delta = 0.5)
    // Before persisting: the plan of another frame over the same rows would
    // find the same cache entry.
    val unpersisted = comparable(Miscela.assembleComponents(data, locs, retuned))
    data.persist()
    locs.persist()
    try {
      Miscela.assembleComponents(data, locs, params)
      val (again, run) = observe("repeated")(Miscela.assembleComponents(data, locs, retuned))
      assert(run.jobs.size == 1, s"${run.jobs.size} Spark jobs")
      assert(shuffleMaps(run).isEmpty, s"shuffle map stages run: ${shuffleMaps(run).map(_.name)}")
      assert(comparable(again) == unpersisted)
    } finally {
      data.unpersist()
      locs.unpersist()
    }
  }

  test("a lower psi with the same epsilon and delta brings back the sensors a higher psi pruned, with no job") {
    val (data, locs) = world()
    // jumpsA has 5 events and jumpsB 2: psi = 3 prunes a3, b1 and b2.
    val high = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 3, maxSensors = 3)
    val low = high.copy(psi = 2)
    val want = Miscela.mine(spark, data, locs, low)
    def ids(assembled: (Seq[(Array[CompSensor], Array[CompEdge])], Int)) = assembled._1.flatMap(_._1).map(_.id).sorted
    data.persist()
    locs.persist()
    try {
      assert(ids(Miscela.assembleComponents(data, locs, high)) == Seq("a1", "a2"))
      val (assembled, run) = observe("lower-psi")(Miscela.assembleComponents(data, locs, low))
      assert(run.jobs.isEmpty, s"${run.jobs.size} Spark jobs for stages 1-3")
      assert(ids(assembled) == Seq("a1", "a2", "a3", "b1", "b2"))
      val (caps, mining) = observe("lower-psi-mine")(Miscela.mine(spark, data, locs, low))
      assert(mining.jobs.isEmpty, s"${mining.jobs.size} Spark jobs to mine")
      assert(caps == want && caps.names.exists(_.startsWith("b")))
    } finally {
      data.unpersist()
      locs.unpersist()
    }
  }

  test("on a persisted frame the event lists follow epsilon and delta flipping back and forth") {
    // As in "delta smoothing …": wiggles of ±2 evolve at ε = 1 unless δ = 3
    // smooths them or ε = 3 ignores them; the 10-step evolves throughout.
    val wiggly = Seq(0.0, 2.0, 0.0, 2.0, 0.0, 12.0, 14.0, 12.0, 14.0, 12.0).map(Some(_))
    val partner = Seq(0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0, 10.0).map(Some(_))
    val data = dataDf(spark, Map(("w", "temperature") -> wiggly, ("p", "trafficVolume") -> partner))
    val locs = locDf(spark, Seq(("w", "temperature", 0.0, 0.0), ("p", "trafficVolume", 0.0001, 0.0)))
    val base = CapParams(epsilon = 1.0, etaKm = 1.0, psi = 1, maxSensors = 2)
    val session = Seq(base, base.copy(delta = 3.0), base, base.copy(epsilon = 3.0), base.copy(psi = 2), base)
    val unpersisted = session.distinct.map(p => p -> comparable(Miscela.assembleComponents(data, locs, p))).toMap
    assert(session.zip(session.tail).forall { case (a, b) => unpersisted(a) != unpersisted(b) },
      "each request must move the lists")
    data.persist()
    locs.persist()
    try session.foreach(p => assert(comparable(Miscela.assembleComponents(data, locs, p)) == unpersisted(p), p))
    finally {
      data.unpersist()
      locs.unpersist()
    }
  }

  /** Santander sf = 0.05 (T2's dataset), written to Parquet twice and read
    * back: two (data, locations) copies of the same rows whose plans
    * differ, so persisting one leaves the other unpersisted.
    */
  private lazy val santanderCopies: Seq[(DataFrame, DataFrame)] = {
    val ds = SmartCityData.santander(spark, 0.05)
    val dir = Files.createTempDirectory("retune")
    Seq("persisted", "unpersisted").map { copy =>
      def written(frame: DataFrame, name: String) = {
        val path = dir.resolve(s"$copy-$name").toString
        frame.write.parquet(path)
        spark.read.parquet(path)
      }
      (written(ds.data, "data"), written(ds.locations, "locations"))
    }
  }

  /** An analyst's seeded session of `n` requests over T2's value grids:
    * each request after the first changes one of ε, δ, ψ, μ, η, maxSensors
    * or the sign policy to another value of its grid, ε or δ half the time.
    * Half the changes of ε or δ instead return to the (ε, δ) pair before
    * the current one, so the pair flips back and forth.
    */
  private def retunes(rnd: Random, n: Int): Seq[CapParams] = {
    def other[A](values: Seq[A], now: A): A = {
      val others = values.filter(_ != now)
      others(rnd.nextInt(others.length))
    }
    val changes: IndexedSeq[CapParams => CapParams] = IndexedSeq(
      p => p.copy(epsilon = other(Seq(0.5, 2.0, 10.5, 16.0), p.epsilon)),
      p => p.copy(delta = other(Seq(0.0, 0.5), p.delta)),
      p => p.copy(psi = other(Seq(20, 100, 300), p.psi)),
      p => p.copy(mu = other(Seq(2, 3), p.mu)),
      p => p.copy(etaKm = other(Seq(0.05, 0.2, 0.5, 2.0), p.etaKm)),
      p => p.copy(maxSensors = other(Seq(2, 3, 4), p.maxSensors)),
      p => p.copy(signPolicy = other(Seq(SignPolicy.SameSign, SignPolicy.AnySign), p.signPolicy)),
    )
    def pair(p: CapParams) = (p.epsilon, p.delta)
    val start = CapParams(epsilon = 2.0, etaKm = 0.5, mu = 3, psi = 20, maxSensors = 3)
    // (request, the request whose pair preceded the request's own pair)
    Iterator.iterate((start, start)) { case (p, before) =>
      val i = if (rnd.nextBoolean()) rnd.nextInt(2) else 2 + rnd.nextInt(changes.length - 2)
      val next =
        if (i < 2 && pair(before) != pair(p) && rnd.nextBoolean()) p.copy(epsilon = before.epsilon, delta = before.delta)
        else changes(i)(p)
      (next, if (pair(next) == pair(p)) before else p)
    }.map(_._1).take(n).toSeq
  }

  Seq(1, 2, 3).foreach { seed =>
    test(s"property: re-tuned requests on a persisted frame equal mine on an unpersisted copy (seed $seed)") {
      val requests = retunes(new Random(seed), 14)
      val pairs = requests.map(p => (p.epsilon, p.delta))
      val pairChanges = pairs.zip(pairs.tail).collect { case (a, b) if a != b => b }
      // The session must both keep and change (ε, δ), and return to a pair.
      assert(pairs.zip(pairs.tail).exists { case (a, b) => a == b }, pairs)
      assert((pairs.head +: pairChanges).sliding(3).exists(w => w.length == 3 && w(0) == w(2)), pairs)
      val Seq((data, locs), (coldData, coldLocs)) = santanderCopies
      data.persist()
      locs.persist()
      try {
        val sizes = requests.map { p =>
          val got = Miscela.mine(spark, data, locs, p)
          assert(got == Miscela.mine(spark, coldData, coldLocs, p), p)
          // Stages 1-3 too: the ψ-pruned event lists and components.
          assert(comparable(Miscela.assembleComponents(data, locs, p)) ==
            comparable(Miscela.assembleComponents(coldData, coldLocs, p)), p)
          got.length
        }
        assert(sizes.exists(_ > 0), sizes)
      } finally {
        data.unpersist()
        locs.unpersist()
      }
    }
  }

  test("a frame unpersisted, or re-persisted over rewritten rows, is prepared again") {
    // x and y step together at hours 3 and 6. The rewrite moves y's second
    // step to hour 7 by changing one reading to text of the same length.
    val file = Files.createTempDirectory("re-persist").resolve("data.csv")
    def upload(yAt6: String): Unit = {
      val x = Seq("10.0", "10.0", "10.0", "20.0", "20.0", "20.0", "30.0", "30.0", "30.0", "30.0")
      val y = x.updated(6, yAt6)
      val lines = Seq("x" -> x, "y" -> y).flatMap { case (id, vs) =>
        vs.zipWithIndex.map { case (v, t) => s"$id,${if (id == "x") "temperature" else "light"},${ts(t)},$v" }
      }
      Files.write(file, ("id,attribute,time,data\n" + lines.mkString("\n") + "\n").getBytes(UTF_8))
    }
    upload("30.0")
    val data = spark.read.option("header", "true")
      .schema("id STRING, attribute STRING, time TIMESTAMP, data DOUBLE").csv(file.toString)
    val locs = locDf(spark, Seq(("x", "temperature", 43.46, -3.8), ("y", "light", 43.4601, -3.8)))
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, psi = 1, maxSensors = 2)
    def plusLists() = Miscela.assembleComponents(data, locs, params)._1.flatMap(_._1)
      .map(s => s.id -> s.plus).toMap
    def support() = Miscela.mine(spark, data, locs, params).collect().map(_.support).toSeq
    data.persist()
    try {
      assert(plusLists() == Map("x" -> Seq(3, 6), "y" -> Seq(3, 6)) && support() == Seq(2))
      upload("20.0")
      data.unpersist()
      val (lists, run) = observe("unpersisted")(plusLists())
      assert(shuffleMaps(run).length == 1, s"shuffle map stages run: ${shuffleMaps(run).map(_.name)}")
      assert(lists == Map("x" -> Seq(3, 6), "y" -> Seq(3, 7)) && support() == Seq(1))
      data.persist()
      assert(plusLists() == Map("x" -> Seq(3, 6), "y" -> Seq(3, 7)) && support() == Seq(1))
      val (again, rerun) = observe("re-persisted")(plusLists())
      assert(shuffleMaps(rerun).isEmpty && again == lists)
    } finally data.unpersist()
  }

  test("two threads mining one persisted frame at once get the single-threaded CAP table") {
    val (data, locs) = world()
    val want = Miscela.mine(spark, data, locs, edgeParams)
    data.persist()
    locs.persist()
    try {
      val start = new CountDownLatch(1)
      val runs = (1 to 2).map { _ =>
        val done = new FutureTask[CapTable](() => {
          start.await()
          Miscela.mine(spark, data, locs, edgeParams)
        })
        new Thread(done).start()
        done
      }
      start.countDown()
      runs.foreach(r => assert(r.get(120, TimeUnit.SECONDS) == want))
      assert(want.nonEmpty)
    } finally {
      data.unpersist()
      locs.unpersist()
    }
  }
}
