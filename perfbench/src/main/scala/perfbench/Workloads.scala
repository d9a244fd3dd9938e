package perfbench

import repro.core.CapParams

/** The reference CAP set of a workload: how many CAPs every request must
  * return, and the SHA-256 of their sorted canonical lines (see
  * [[CapCheck.canonical]]).
  */
final case class Reference(count: Int, digest: String)

/** One benchmark workload: a generated dataset, the CAP parameters every
  * request submits, the CAP set every request must return, and how many
  * untimed misses warm the JVM before timing starts.
  */
final case class Workload(
    name: String,
    dataset: String,
    sf: Double,
    params: CapParams,
    reference: Reference,
    warmups: Int,
)

object Workloads {

  private val SantanderParams = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 50, maxSensors = 4)
  private val China6Params = CapParams(epsilon = 1.0, etaKm = 450.0, mu = 3, psi = 20, maxSensors = 4)

  // Both digests were cross-checked against Miscela.mine(useNaive = true)
  // with `python3 perfbench/run.py --reference` (see perfbench/README.md).
  private val SantanderRef =
    Reference(126, "84cb1f590ca5324c92b45732b7c527abdece1779d1124776dd3e3b3008471795")
  private val China6Ref =
    Reference(77950, "909d66723f198aaef984e7d6bbb089847aa457e95767cff3ab83a7aa99355676")

  // Latency keeps falling for about eight misses as the JIT warms up; the
  // time budget allows about 10 s of warm-up: two Santander misses or one
  // China6 miss.
  val all: Seq[Workload] = Seq(
    Workload("santander-miss", "santander", 0.05, SantanderParams, SantanderRef, warmups = 2),
    Workload("china6-miss", "china6", 0.007, China6Params, China6Ref, warmups = 1),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; one of ${all.map(_.name).mkString(", ")}"))
}
