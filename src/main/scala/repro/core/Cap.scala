package repro.core

import org.apache.spark.sql.{Encoder, Encoders}

/** Sign policy for co-evolution of a sensor set at a timestamp.
  *
  *  - [[SignPolicy.SameSign]] (MISCELA's default): all sensors evolve *and*
  *    all move in the same direction.
  *  - [[SignPolicy.AnySign]]: all sensors evolve, direction free — admits
  *    anti-correlated patterns (e.g. temperature up while humidity down).
  */
sealed trait SignPolicy
object SignPolicy {
  case object SameSign extends SignPolicy
  case object AnySign extends SignPolicy

  def fromString(s: String): SignPolicy = s.toLowerCase match {
    case "samesign" | "same" => SameSign
    case "anysign" | "any"   => AnySign
    case other               => throw new IllegalArgumentException(s"unknown sign policy: $other")
  }
}

/** User-facing CAP-mining parameters (Section 2.1 of the paper).
  *
  * @param epsilon evolving rate ε — a measurement change ≤ ε is noise
  * @param etaKm   distance threshold η in kilometres — sensors closer than η
  *                are spatially close
  * @param mu      maximum number of *distinct attributes* in a CAP (μ ≥ 2)
  * @param psi     minimum support ψ — minimum number of co-evolving
  *                timestamps (ψ ≥ 1)
  * @param delta   linear-segmentation tolerance (0 disables smoothing)
  * @param signPolicy            co-evolution direction policy
  * @param maxSensors            cap on the sensor-set size of a pattern;
  *                              bounds the connected-subset enumeration
  *                              (MISCELA bounds growth via its pattern
  *                              tree; we bound the equivalent search)
  * @param allowSingleAttribute  lifts the ≥2-distinct-attributes
  *                              restriction ("this restriction can be
  *                              easily removed", Section 2.1)
  */
final case class CapParams(
    epsilon: Double = 1.0,
    etaKm: Double = 0.5,
    mu: Int = 3,
    psi: Int = 10,
    delta: Double = 0.0,
    signPolicy: SignPolicy = SignPolicy.SameSign,
    maxSensors: Int = 5,
    allowSingleAttribute: Boolean = false,
) {
  require(epsilon >= 0, s"epsilon must be >= 0, got $epsilon")
  require(etaKm > 0, s"etaKm must be > 0, got $etaKm")
  require(mu >= 1, s"mu must be >= 1, got $mu")
  require(psi >= 1, s"psi must be >= 1, got $psi")
  require(delta >= 0, s"delta must be >= 0, got $delta")
  require(maxSensors >= 2, s"maxSensors must be >= 2, got $maxSensors")

  /** Canonical key string; the cache (Section 3.3) keys results on it.
    * Doubles are interpolated with `java.lang.Double.toString`, which
    * round-trips, so two parameter sets share a key only if they are equal.
    */
  def cacheKey: String =
    s"eps=$epsilon|eta=$etaKm|mu=$mu|psi=$psi|delta=$delta|sign=$signPolicy|maxS=$maxSensors|single=$allowSingleAttribute"
}

/** One discovered correlated attribute pattern: a spatially connected,
  * co-evolving sensor set.
  *
  * @param attributes sorted distinct attributes measured by the sensors
  * @param sensors    sorted sensor ids
  * @param support    number of timestamps at which all sensors co-evolve
  */
final case class Cap(attributes: Seq[String], sensors: Seq[String], support: Long)

object Cap {

  /** The one Dataset encoder of [[Cap]], derived on first use: a derivation
    * reflects over the case class and takes milliseconds, so `mine` and the
    * cache share this one rather than derive one per call.
    */
  lazy val encoder: Encoder[Cap] = Encoders.product[Cap]
}
