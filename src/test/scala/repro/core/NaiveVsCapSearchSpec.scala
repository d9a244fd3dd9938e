package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

/** The strongest correctness net for the search: the brute-force baseline
  * and the pruned search must return identical CAP sets on arbitrary
  * components, across parameters and sign policies.
  */
class NaiveVsCapSearchSpec extends AnyFunSuite {

  private def randomComponent(r: Random, maxN: Int, nT: Int): (Array[SensorEvents], Array[Array[Int]]) = {
    val n = 2 + r.nextInt(maxN - 1)
    val nAttrs = 1 + r.nextInt(4)
    val sensors = (0 until n).map { i =>
      val p = Bits.empty(nT); val m = Bits.empty(nT)
      (0 until nT).foreach { t =>
        val x = r.nextDouble()
        if (x < 0.25) Bits.set(p, t) else if (x < 0.4) Bits.set(m, t)
      }
      SensorEvents(s"s$i", s"attr${r.nextInt(nAttrs)}", p, m)
    }.toArray
    val b = Array.fill(n)(Set.newBuilder[Int])
    for (i <- 0 until n; j <- (i + 1) until n if r.nextDouble() < 0.5) { b(i) += j; b(j) += i }
    (sensors, b.map(_.result().toArray.sorted))
  }

  for ((policy, p) <- Seq(SignPolicy.SameSign, SignPolicy.AnySign).zipWithIndex; single <- Seq(false, true)) {
    test(s"property: the CAPs searched into a table builder equal the table of the emitted CAPs ($policy, single $single)") {
      val r = new Random(40 + 2 * p + (if (single) 1 else 0))
      (1 to 20).foreach { round =>
        val params = CapParams(psi = 1 + r.nextInt(6), mu = 1 + r.nextInt(4), maxSensors = 2 + r.nextInt(5),
          signPolicy = policy, allowSingleAttribute = single)
        // 1-3 components, each searched over a random half of its roots,
        // with ids and attributes from the same names, so that an id may
        // equal another sensor's attribute. The pruned search goes into one
        // builder over all their names; the brute-force search emits the
        // CAPs that builder must hold.
        val names = r.shuffle(CapTableSpec.trickyNames)
        val comps = (0 until 1 + r.nextInt(3)).map { _ =>
          val (sensors, adj) = randomComponent(r, 9, 32)
          val named = sensors.zipWithIndex.map { case (s, i) =>
            s.copy(id = names(i), attribute = names(3 + s.attribute.last.asDigit))
          }
          (named, adj, sensors.indices.filter(_ => r.nextBoolean()).toSet)
        }
        val builder = new CapTable.Builder(comps.flatMap(_._1).flatMap(s => Seq(s.id, s.attribute)).distinct.sorted.toArray)
        comps.foreach { case (named, adj, roots) => CapSearch.enumerateInto(named, adj, params, builder, roots) }
        val got = CapTable.merge(Seq(builder.result()))
        val want = CapTable(comps.flatMap { case (named, adj, roots) => NaiveSearch.enumerate(named, adj, params, roots) })
        assert(got == want, s"round $round, $params")
        assert(got.names.toSeq == want.names.toSeq, s"round $round, $params: names")
      }
    }
  }

  private def canon(caps: Seq[Cap]): Seq[(String, String, Long)] =
    caps.map(c => (c.attributes.mkString(","), c.sensors.mkString(","), c.support)).sorted

  /** Returns the number of CAPs found over the ten rounds. */
  private def check(seed: Int, params: CapParams, maxN: Int = 7, nT: Int = 32): Int = {
    val r = new Random(seed)
    (1 to 10).map { round =>
      val (sensors, adj) = randomComponent(r, maxN, nT)
      val fast = CapSearchSpec.search(sensors, adj, params)
      val slow = NaiveSearch.enumerate(sensors, adj, params)
      assert(canon(fast) == canon(slow),
        s"divergence at seed=$seed round=$round params=$params\n" +
          s"  fast=${canon(fast)}\n  slow=${canon(slow)}")
      fast.size
    }.sum
  }

  private val paramGrid = Seq(
    CapParams(psi = 1, mu = 2, maxSensors = 4),
    CapParams(psi = 2, mu = 3, maxSensors = 5),
    CapParams(psi = 5, mu = 4, maxSensors = 7),
    CapParams(psi = 3, mu = 2, maxSensors = 3, allowSingleAttribute = true),
    CapParams(psi = 2, mu = 3, maxSensors = 5, signPolicy = SignPolicy.AnySign),
    CapParams(psi = 1, mu = 4, maxSensors = 7, signPolicy = SignPolicy.AnySign, allowSingleAttribute = true),
  )

  for ((params, pi) <- paramGrid.zipWithIndex; seed <- 1 to 5) {
    test(s"pruned search ≡ brute force (param set $pi, seed $seed)") {
      check(seed * 31 + pi, params)
    }
  }

  // Bitsets of several words, so the early exit of the fused AND and
  // popcount can stop between words, and components of up to 12 sensors,
  // whose ids no longer sort in index order ("s10" < "s2").
  for ((params, pi) <- paramGrid.zipWithIndex; nT <- Seq(130, 730); seed <- 1 to 2) {
    test(s"pruned search ≡ brute force (param set $pi, nT $nT, up to 12 sensors, seed $seed)") {
      val found = check(seed * 131 + pi * 7 + nT, params.copy(psi = params.psi * nT / 64), maxN = 12, nT = nT)
      assert(found > 0, "no CAP in any round: the comparison is vacuous")
    }
  }

  // Splitting the roots into k classes partitions the CAP set: the root
  // fan-out of Miscela.mine neither loses nor repeats a pattern.
  private val searches = Seq[(String, (Array[SensorEvents], Array[Array[Int]], CapParams, Int => Boolean) => Seq[Cap])](
    "pruned" -> CapSearchSpec.search,
    "naive" -> NaiveSearch.enumerate,
  )
  for ((name, search) <- searches; seed <- 1 to 3) {
    test(s"property: root-selected $name searches partition the full search (seed $seed)") {
      val r = new Random(seed)
      (1 to 8).foreach { round =>
        val (sensors, adj) = randomComponent(r, maxN = 10, nT = 130)
        val params = paramGrid(round % paramGrid.size)
        val full = canon(search(sensors, adj, params, _ => true))
        val n = sensors.length
        for (k <- Seq(1, 2, 3, 4, 7, n + 3)) {
          val parts = (0 until k).map(j => canon(search(sensors, adj, params, _ % k == j)))
          val union = parts.flatten
          assert(union.sorted == full, s"seed=$seed round=$round k=$k: union differs from the full search")
          assert(union.distinct.size == union.size, s"seed=$seed round=$round k=$k: parts overlap")
        }
      }
    }
  }
}
