package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

object CapSearchSpec {

  /** The CAPs of one component whose minimum member is a selected root, in
    * export order: [[CapSearch.enumerateInto]] into a builder over the
    * component's names.
    */
  def search(
      sensors: Array[SensorEvents],
      adj: Array[Array[Int]],
      params: CapParams,
      roots: Int => Boolean = _ => true,
  ): CapTable = {
    val into = new CapTable.Builder(sensors.flatMap(s => Array(s.id, s.attribute)).distinct.sorted)
    CapSearch.enumerateInto(sensors, adj, params, into, roots)
    into.result()
  }
}

/** Direct tests of the per-component CAP search on hand-built graphs. */
class CapSearchSpec extends AnyFunSuite {

  import CapSearchSpec.search

  private val NT = 64

  /** Sensor with plus-events at `plus` and minus-events at `minus`. */
  private def sensor(id: String, attr: String, plus: Seq[Int], minus: Seq[Int] = Nil, nT: Int = NT): SensorEvents = {
    val p = Bits.empty(nT); plus.foreach(Bits.set(p, _))
    val m = Bits.empty(nT); minus.foreach(Bits.set(m, _))
    SensorEvents(id, attr, p, m)
  }

  private def adjacency(n: Int, edges: (Int, Int)*): Array[Array[Int]] = {
    val b = Array.fill(n)(Set.newBuilder[Int])
    edges.foreach { case (x, y) => b(x) += y; b(y) += x }
    b.map(_.result().toArray.sorted)
  }

  private def caps(sensors: Seq[SensorEvents], adj: Array[Array[Int]], params: CapParams): Set[Cap] =
    search(sensors.toArray, adj, params).toSet

  private val base = CapParams(psi = 2, mu = 3, maxSensors = 4)

  test("a co-evolving adjacent pair with two attributes is a CAP") {
    val s = Seq(sensor("a", "temp", Seq(1, 5, 9)), sensor("b", "traffic", Seq(1, 5, 20)))
    val got = caps(s, adjacency(2, (0, 1)), base)
    assert(got == Set(Cap(Seq("temp", "traffic"), Seq("a", "b"), 2)))
  }

  test("no edge, no CAP — co-evolution alone is not enough") {
    val s = Seq(sensor("a", "temp", Seq(1, 5)), sensor("b", "traffic", Seq(1, 5)))
    assert(caps(s, adjacency(2), base).isEmpty)
  }

  test("support below psi is rejected") {
    val s = Seq(sensor("a", "temp", Seq(1)), sensor("b", "traffic", Seq(1)))
    assert(caps(s, adjacency(2, (0, 1)), base).isEmpty)
  }

  test("same-attribute pairs are excluded unless allowSingleAttribute") {
    val s = Seq(sensor("a", "temp", Seq(1, 5)), sensor("b", "temp", Seq(1, 5)))
    val adj = adjacency(2, (0, 1))
    assert(caps(s, adj, base).isEmpty)
    val got = caps(s, adj, base.copy(allowSingleAttribute = true))
    assert(got == Set(Cap(Seq("temp"), Seq("a", "b"), 2)))
  }

  test("SameSign policy: support counts all-up plus all-down timestamps") {
    val s = Seq(
      sensor("a", "temp", plus = Seq(1, 2), minus = Seq(3, 4)),
      sensor("b", "traffic", plus = Seq(1, 9), minus = Seq(3)),
    )
    val got = caps(s, adjacency(2, (0, 1)), base.copy(psi = 1))
    // Co-evolving: t1 (both plus) and t3 (both minus) → support 2.
    assert(got == Set(Cap(Seq("temp", "traffic"), Seq("a", "b"), 2)))
  }

  test("AnySign policy admits opposite directions") {
    val s = Seq(
      sensor("a", "temp", plus = Seq(1, 2)),
      sensor("b", "humidity", plus = Nil, minus = Seq(1, 2)),
    )
    assert(caps(s, adjacency(2, (0, 1)), base).isEmpty) // SameSign: no common direction
    val got = caps(s, adjacency(2, (0, 1)), base.copy(signPolicy = SignPolicy.AnySign))
    assert(got == Set(Cap(Seq("humidity", "temp"), Seq("a", "b"), 2)))
  }

  test("mu bounds the number of distinct attributes") {
    val s = Seq(
      sensor("a", "t1", Seq(1, 2, 3)),
      sensor("b", "t2", Seq(1, 2, 3)),
      sensor("c", "t3", Seq(1, 2, 3)),
    )
    val adj = adjacency(3, (0, 1), (1, 2))
    val mu2 = caps(s, adj, base.copy(mu = 2))
    assert(mu2 == Set(
      Cap(Seq("t1", "t2"), Seq("a", "b"), 3),
      Cap(Seq("t2", "t3"), Seq("b", "c"), 3),
    ))
    val mu3 = caps(s, adj, base.copy(mu = 3))
    assert(mu3.contains(Cap(Seq("t1", "t2", "t3"), Seq("a", "b", "c"), 3)))
    assert(mu3.size == 3)
  }

  test("patterns must be connected through their own members") {
    // a—b—c path where only a and c co-evolve: {a,c} is disconnected
    // without b, so no CAP containing exactly {a,c} may appear.
    val s = Seq(
      sensor("a", "t1", Seq(1, 2)),
      sensor("b", "t2", Seq(40, 50)),
      sensor("c", "t3", Seq(1, 2)),
    )
    val got = caps(s, adjacency(3, (0, 1), (1, 2)), base)
    assert(got.isEmpty)
  }

  test("maxSensors caps pattern size") {
    val s = (0 until 5).map(i => sensor(s"s$i", s"a$i", Seq(1, 2)))
    val adj = adjacency(5, (0, 1), (1, 2), (2, 3), (3, 4))
    val got = caps(s, adj, base.copy(mu = 5, maxSensors = 2))
    assert(got.forall(_.sensors.size == 2))
    assert(got.size == 4) // the four path edges
  }

  test("one sensor can appear with repeated attributes in a pattern") {
    val s = Seq(
      sensor("a", "traffic", Seq(1, 2)),
      sensor("b", "traffic", Seq(1, 2)),
      sensor("c", "temp", Seq(1, 2)),
    )
    val got = caps(s, adjacency(3, (0, 1), (1, 2), (0, 2)), base)
    assert(got.contains(Cap(Seq("temp", "traffic"), Seq("a", "b", "c"), 2)))
  }

  test("empty and single-sensor components yield nothing") {
    assert(caps(Nil, adjacency(0), base).isEmpty)
    assert(caps(Seq(sensor("a", "t", Seq(1, 2, 3))), adjacency(1), base).isEmpty)
  }

  test("each qualifying set is emitted exactly once") {
    val s = Seq(
      sensor("a", "t1", Seq(1, 2, 3)),
      sensor("b", "t2", Seq(1, 2, 3)),
      sensor("c", "t3", Seq(1, 2, 3)),
      sensor("d", "t4", Seq(1, 2, 3)),
    )
    // Complete graph on 4 vertices: many overlapping enumeration paths.
    val adj = adjacency(4, (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    val list = search(s.toArray, adj, base.copy(mu = 4, maxSensors = 4))
    val keys = list.map(c => c.sensors.mkString(","))
    assert(keys.distinct.size == keys.size, s"duplicates in $keys")
    // All subsets of size 2..4 are connected in K4: C(4,2)+C(4,3)+C(4,4)=11.
    assert(list.size == 11)
  }

  test("a 50,000-leaf star is searched in linear time") {
    // Every leaf co-evolves with the hub; the odd leaves share the hub's
    // attribute, so only the even ones form a CAP with it. A copied
    // frontier made this quadratic in the number of leaves (214 s).
    val leaves = 50000
    val hub = sensor("hub", "a", Seq(1))
    val s = hub +: (0 until leaves).map(i => sensor(f"leaf$i%05d", if (i % 2 == 0) "b" else "a", Seq(1)))
    val adj = Array(Array.range(1, leaves + 1)) ++ Array.fill(leaves)(Array(0))
    val t0 = System.nanoTime()
    val got = search(s.toArray, adj, CapParams(psi = 1, maxSensors = 2))
    val seconds = (System.nanoTime() - t0) / 1e9
    assert(got.size == leaves / 2)
    assert(got.forall(c => c.sensors.head == "hub" && c.attributes == Seq("a", "b") && c.support == 1))
    assert(seconds < 10, s"star search took $seconds s")
  }

  test("setSupport matches incremental support") {
    val a = sensor("a", "t1", plus = Seq(1, 2, 5), minus = Seq(7))
    val b = sensor("b", "t2", plus = Seq(2, 5), minus = Seq(7, 9))
    assert(CapSearch.setSupport(Seq(a, b), SignPolicy.SameSign) == 3)
    assert(CapSearch.setSupport(Seq(a, b), SignPolicy.AnySign) == 3)
    val c = sensor("c", "t3", plus = Seq(5), minus = Seq(2))
    assert(CapSearch.setSupport(Seq(a, b, c), SignPolicy.SameSign) == 1)
    assert(CapSearch.setSupport(Seq(a, b, c), SignPolicy.AnySign) == 2)
  }

  /** Support recomputed on plain sets of (plus, minus) timestamps. */
  private def refSupport(members: Seq[(Set[Int], Set[Int])], policy: SignPolicy): Int = policy match {
    case SignPolicy.SameSign => members.map(_._1).reduce(_ & _).size + members.map(_._2).reduce(_ & _).size
    case SignPolicy.AnySign  => members.map(m => m._1 | m._2).reduce(_ & _).size
  }

  // Widths on both sides of the 64-bit word boundary, so the SameSign
  // layout (plus words, then minus words) spans one, two and three words.
  for (nT <- Seq(1, 63, 64, 65, 130); (policy, p) <- Seq(SignPolicy.SameSign, SignPolicy.AnySign).zipWithIndex) {
    test(s"property: setSupport and emitted supports equal a Set recomputation (nT $nT, $policy)") {
      val r = new Random(nT * 2 + p)
      (1 to 50).foreach { _ =>
        val k = 2 + r.nextInt(3)
        val sets = Seq.fill(k) {
          val draws = Seq.fill(nT)(r.nextInt(20)) // 45% plus, 45% minus, 10% neither
          def at(from: Int, until: Int) = draws.indices.filter(t => draws(t) >= from && draws(t) < until).toSet
          (at(0, 9), at(9, 18))
        }
        val sensors = sets.zipWithIndex.map { case ((plus, minus), i) =>
          sensor(s"s$i", s"a$i", plus.toSeq, minus.toSeq, nT)
        }
        val subsets = (2 to k).flatMap(sets.indices.combinations)
        subsets.foreach { ix =>
          assert(CapSearch.setSupport(ix.map(sensors), policy) == refSupport(ix.map(sets), policy))
        }
        // On a complete graph every subset is connected, so the search must
        // emit exactly the subsets with support >= psi, each with its support.
        val complete = adjacency(k, (for (a <- 0 until k; b <- a + 1 until k) yield (a, b)): _*)
        val params = CapParams(psi = 1, mu = 4, maxSensors = 4, signPolicy = policy)
        val emitted = search(sensors.toArray, complete, params)
        val want = subsets.map(ix => ix.map(i => s"s$i").mkString(",") -> refSupport(ix.map(sets), policy).toLong)
        assert(emitted.map(c => c.sensors.mkString(",") -> c.support).sorted == want.filter(_._2 >= 1).sorted)
      }
    }
  }
}
