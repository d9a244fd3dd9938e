package repro.bench

import repro.SparkSpec
import repro.core.CapParams
import repro.data.SmartCityData
import repro.exp.T3Runtime

/** T3 — MISCELA's pruned CAP search vs the brute-force baseline.
  *
  * Reproduced shape (MDM'19 headline + the demo paper's "MISCELA may take
  * a long time" motivation): both searches return identical CAP sets;
  * MISCELA is faster; the gap widens as the candidate space grows (larger
  * components / larger maxSensors).
  */
class T3RuntimeBench extends SparkSpec {

  private val params = CapParams(etaKm = 450.0, psi = 20, mu = 3, maxSensors = 4)

  // China corridors give one large, densely connected component whose
  // same-row sensors all co-evolve — the worst case for unpruned search.
  private lazy val rows = Seq(
    ("china6 sf=0.002 (~19 sensors)", SmartCityData.china6(spark, 0.002)),
    ("china6 sf=0.004 (~38 sensors)", SmartCityData.china6(spark, 0.004)),
    ("china6 sf=0.007 (~66 sensors)", SmartCityData.china6(spark, 0.007)),
  ).map { case (label, ds) => T3Runtime.compareSearchOnly(ds, params, label) }

  test("T3: print the runtime table") {
    println(T3Runtime.table(rows, "T3 search runtime: MISCELA vs naive enumeration"))
  }

  test("T3: both searches return identical CAP sets at every scale") {
    rows.foreach(r => assert(r.sameResults, s"${r.config}: result divergence"))
  }

  test("T3: every scale finds a non-trivial number of CAPs") {
    rows.foreach(r => assert(r.nCaps > 0, s"${r.config}: no CAPs"))
  }

  test("T3: MISCELA beats the naive baseline at the largest scale") {
    val largest = rows.last
    assert(largest.speedup > 1.0,
      s"expected pruned search to win, got ${largest.speedup}x (miscela=${largest.miscelaMs}ms naive=${largest.naiveMs}ms)")
  }

  test("T3: the naive search degrades faster than MISCELA as scale grows") {
    val naiveGrowth = rows.last.naiveMs.toDouble / math.max(1L, rows.head.naiveMs)
    val miscelaGrowth = rows.last.miscelaMs.toDouble / math.max(1L, rows.head.miscelaMs)
    assert(naiveGrowth > miscelaGrowth,
      s"naive grew ${naiveGrowth}x vs miscela ${miscelaGrowth}x — pruning should flatten growth")
  }
}
