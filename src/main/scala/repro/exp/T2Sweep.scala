package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.{CapParams, Miscela}
import repro.data.SmartCityDataset

/** T2 — parameter sensitivity of the number of discovered CAPs
  * (Section 2.1's per-parameter impact claims).
  *
  * One parameter varies per sweep while the others stay at the scenario
  * base; each row records the CAP count and the mining time, so the bench
  * can assert the monotone directions:
  *
  *  - η up  → #CAPs up (more sensors become spatially close);
  *  - ψ up  → #CAPs down (stricter minimum support);
  *  - μ up  → #CAPs up, weakly (more attributes admitted per pattern);
  *  - ε up  → #CAPs down under the formal MDM'19 semantics (changes ≤ ε
  *    are noise, so fewer evolving timestamps survive). The demo paper's
  *    prose sentence claims the opposite direction; see DESIGN.md "Known
  *    deliberate choices" — we record the measured direction.
  */
object T2Sweep {

  final case class SweepRow(param: String, value: Double, nCaps: Long, millis: Long)

  /** Runs one mining pass and counts CAPs. */
  def countCaps(spark: SparkSession, ds: SmartCityDataset, params: CapParams): (Long, Long) = {
    val (n, ms) = Tables.timed {
      Miscela.mine(spark, ds.data, ds.locations, params).length.toLong
    }
    (n, ms)
  }

  /** Sweeps each named parameter over its values, one at a time. */
  def sweep(
      spark: SparkSession,
      ds: SmartCityDataset,
      base: CapParams,
      epsilons: Seq[Double],
      etas: Seq[Double],
      psis: Seq[Int],
      mus: Seq[Int],
  ): Seq[SweepRow] = {
    def run(param: String, values: Seq[Double])(mk: Double => CapParams): Seq[SweepRow] =
      values.map { v =>
        val (n, ms) = countCaps(spark, ds, mk(v))
        SweepRow(param, v, n, ms)
      }
    run("epsilon", epsilons)(v => base.copy(epsilon = v)) ++
      run("eta", etas)(v => base.copy(etaKm = v)) ++
      run("psi", psis.map(_.toDouble))(v => base.copy(psi = v.toInt)) ++
      run("mu", mus.map(_.toDouble))(v => base.copy(mu = v.toInt))
  }

  def table(rows: Seq[SweepRow], title: String): String =
    Tables.render(title, Seq("param", "value", "#CAPs", "millis"),
      rows.map(r => Seq(r.param, r.value.toString, r.nCaps.toString, r.millis.toString)))
}
