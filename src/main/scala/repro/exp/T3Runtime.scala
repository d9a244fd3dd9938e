package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.{Cap, CapParams, Miscela}
import repro.data.SmartCityDataset

/** T3 — MISCELA's pruned CAP search versus the brute-force baseline.
  *
  * The demo paper motivates caching with "MISCELA may take a long time";
  * the underlying MDM'19 evaluation's headline is that the pruned tree
  * search beats naive enumeration by growing factors as the search space
  * widens (larger maxSensors, lower ψ). We reproduce the *shape*: both
  * return identical CAP sets, MISCELA is faster, and the gap widens with
  * the candidate-space size.
  */
object T3Runtime {

  final case class RuntimeRow(
      config: String,
      nCaps: Long,
      miscelaMs: Double,
      naiveMs: Double,
      speedup: Double,
      sameResults: Boolean,
  )

  /** Search-stage-only comparison: stages 1–3 run once, then both search
    * strategies are timed on the identical in-memory components. This
    * isolates the algorithmic gap from the (shared) dataflow overhead.
    * Each search runs once untimed first, so the timed pass excludes JIT
    * warm-up; times are in fractional milliseconds.
    */
  def compareSearchOnly(
      spark: SparkSession,
      ds: SmartCityDataset,
      params: CapParams,
      config: String,
  ): RuntimeRow = {
    val (comps, nT) = Miscela.assembleComponents(ds.data, ds.locations, params)
    def run(naive: Boolean): (Seq[Cap], Double) = {
      def search() = comps.flatMap { case (sensors, edges) =>
        Miscela.searchAssembled(sensors, edges, nT, params, useNaive = naive)
      }
      search()
      val t0 = System.nanoTime()
      val caps = search()
      (caps, (System.nanoTime() - t0) / 1e6)
    }
    val (miscela, msM) = run(naive = false)
    val (naive, msN) = run(naive = true)
    def canon(caps: Seq[Cap]) =
      caps.map(c => (c.attributes.mkString(","), c.sensors.mkString(","), c.support)).sorted
    RuntimeRow(config, miscela.size.toLong, msM, msN, msN / msM, canon(miscela) == canon(naive))
  }

  def table(rows: Seq[RuntimeRow], title: String): String =
    Tables.render(title,
      Seq("config", "#CAPs", "miscela ms", "naive ms", "speedup", "identical results"),
      rows.map(r => Seq(r.config, r.nCaps.toString, f"${r.miscelaMs}%.2f", f"${r.naiveMs}%.1f",
        f"${r.speedup}%.2fx", r.sameResults.toString)))
}
