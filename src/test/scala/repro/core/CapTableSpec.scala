package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

/** The export order as it was before the CAP table, kept as the oracle of
  * [[CapTable]]'s comparator: each CAP keyed by its joined attribute and
  * sensor lists and its support, compared as strings.
  */
private[repro] object JoinedOrder {
  def key(c: Cap): (String, String, Long) = (c.attributes.mkString(","), c.sensors.mkString(","), c.support)

  def sorted(caps: Seq[Cap]): Seq[Cap] = caps.map(c => (key(c), c)).sortBy(_._1).map(_._2)

  /** True iff `got` holds the CAPs of `caps` in their joined-string order.
    * That order leaves distinct CAPs whose lists join to the same strings
    * in the order they came in; `got` may order those any way.
    */
  def holds(got: Seq[Cap], caps: Seq[Cap]): Boolean =
    got.map(key) == sorted(caps).map(key) && got.groupBy(identity).view.mapValues(_.size).toMap ==
      caps.groupBy(identity).view.mapValues(_.size).toMap
}

object CapTableSpec {

  /** Names that stress the joined-string order: the separator itself,
    * characters below and above it, the empty name, code units below and
    * above a surrogate pair's, and names that are prefixes of one another.
    */
  val trickyNames: IndexedSeq[String] = IndexedSeq(
    "", ",", "+", "!", " ", "\u0000", "\uFB01", "\uD83D\uDE00", "\uD83D\uDE00x", "a", "a,", "a,b", "a+", "a!",
    "a ", "a\u0000", "ab", "abc", "b", "s1", "s10", "s1,0", "s100", "s2", "\uFB01\uFB01", "PM2.5", "PM2",
  )

  /** Distinct CAPs whose lists join to the same strings: `[]` and `[""]`,
    * and `["a,b"]` and `["a", "b"]`.
    */
  val colliding: Seq[Cap] = Seq(
    Cap(Seq("a,b"), Seq("s"), 1), Cap(Seq("a", "b"), Seq("s"), 1),
    Cap(Nil, Seq("s"), 1), Cap(Seq(""), Seq("s"), 1),
    Cap(Nil, Seq(""), 1), Cap(Seq(""), Nil, 1),
  )

  /** `n` random CAPs over `names`, each with 0–3 attributes and 0–4
    * sensors (repeats and unsorted lists included) and a small support, so
    * that equal lists and equal supports both occur.
    */
  def randomCaps(rnd: Random, n: Int, names: IndexedSeq[String]): IndexedSeq[Cap] =
    IndexedSeq.fill(n) {
      def list(max: Int) = Seq.fill(rnd.nextInt(max + 1))(names(rnd.nextInt(names.length)))
      Cap(list(3), list(4), rnd.nextInt(4).toLong)
    }

  /** The table of each of `parts`, all built over one names array: the
    * names of every part's CAPs plus `unused`, which no CAP holds.
    */
  def sharedTables(parts: Seq[Seq[Cap]], unused: Seq[String] = Nil): Seq[CapTable] = {
    val names = (parts.flatten.flatMap(c => c.attributes ++ c.sensors) ++ unused).distinct.sorted.toArray
    parts.map { caps =>
      val builder = new CapTable.Builder(names)
      caps.foreach(builder += _)
      builder.result()
    }
  }
}

class CapTableSpec extends AnyFunSuite {
  import CapTableSpec._

  test("an empty CAP list is an empty table") {
    val t = CapTable(Nil)
    assert(t.isEmpty && t.names.isEmpty && t.bounds.toSeq == Seq(0))
  }

  test("a table holds each name once, and its CAPs read back as given") {
    val caps = Seq(
      Cap(Seq("light", "temperature"), Seq("b", "c"), 7),
      Cap(Seq("temperature", "trafficVolume"), Seq("a", "b"), 42),
    )
    val t = CapTable(caps)
    assert(t.names.toSeq == Seq("a", "b", "c", "light", "temperature", "trafficVolume"))
    assert(t == caps)
    assert(CapTable(t) eq t)
  }

  (1 to 8).foreach { seed =>
    test(s"property: the table's order is the joined-string order (seed $seed)") {
      val rnd = new Random(seed)
      (0 until 25).foreach { round =>
        val names = rnd.shuffle(trickyNames).take(2 + rnd.nextInt(trickyNames.length - 1))
        val caps = randomCaps(rnd, rnd.nextInt(300), names)
        val got = CapTable(caps)
        assert(JoinedOrder.holds(got, caps), s"round $round")
        assert(CapTable(rnd.shuffle(caps)) == got, s"round $round: the order depends on the input order")
        assert(got.names.toSeq == caps.flatMap(c => c.attributes ++ c.sensors).distinct.sorted)
      }
    }
  }

  test("k runs that are each in export order sort like any other list") {
    val rnd = new Random(11)
    val runs = Seq.fill(4)(JoinedOrder.sorted(randomCaps(rnd, 500, trickyNames)))
    val all = runs.flatten
    assert(JoinedOrder.holds(CapTable(all), all))
    assert(CapTable(rnd.shuffle(all)) == CapTable(all))
    val merged = CapTable.merge(sharedTables(runs))
    assert(merged == CapTable(all))
    assert(merged.names.toSeq == CapTable(all).names.toSeq)
  }

  (1 to 5).foreach { seed =>
    test(s"property: merging the tables of any split equals the table of all the CAPs (seed $seed)") {
      val rnd = new Random(100 + seed)
      def same(got: CapTable, want: CapTable, what: String): Unit = {
        assert(got == want, what)
        assert(got.names.toSeq == want.names.toSeq, s"$what: names")
      }
      assert(CapTable.merge(Nil).isEmpty && CapTable.merge(Nil).bounds.toSeq == Seq(0))
      (0 until 25).foreach { round =>
        val names = rnd.shuffle(trickyNames).take(2 + rnd.nextInt(trickyNames.length - 1))
        val caps = rnd.shuffle(randomCaps(rnd, rnd.nextInt(300), names) ++ colliding)
        // Each CAP goes to one of 1–6 parts, so some parts may stay empty.
        val k = 1 + rnd.nextInt(6)
        val parts = caps.groupBy(_ => rnd.nextInt(k)).values.toSeq ++ Seq.fill(rnd.nextInt(3))(Nil)
        // The shared names also hold names that no CAP holds: the merged
        // table drops them.
        val unused = Seq(s"unused $round", "") ++ rnd.shuffle(trickyNames).take(rnd.nextInt(4))
        same(CapTable.merge(sharedTables(rnd.shuffle(parts), unused)), CapTable(caps), s"round $round")
        // Parts over disjoint names: each part's CAPs hold only its own.
        val (left, right) = names.splitAt(names.length / 2)
        val disjoint = Seq(randomCaps(rnd, rnd.nextInt(100), left), randomCaps(rnd, rnd.nextInt(100), right))
        same(CapTable.merge(sharedTables(disjoint)), CapTable(disjoint.flatten), s"round $round, disjoint")
      }
    }
  }

  test("tables over different names arrays are not merged") {
    val a = CapTable(Seq(Cap(Seq("a"), Seq("s1"), 1)))
    val b = CapTable(Seq(Cap(Seq("b"), Seq("s1"), 1)))
    intercept[IllegalArgumentException](CapTable.merge(Seq(a, b)))
    assert(CapTable.merge(Seq(a, a)) == Seq(a.head, a.head))
  }

  test("property: the merged tables of k builders equal the table of all their CAPs, names included") {
    val rnd = new Random(16)
    (0 until 25).foreach { round =>
      val names = rnd.shuffle(trickyNames).take(2 + rnd.nextInt(trickyNames.length - 1))
      val caps = rnd.shuffle(randomCaps(rnd, rnd.nextInt(3000), names) ++ colliding)
      // Each CAP goes to one of 1–6 builders over one names array, which
      // also holds a name no CAP uses, added either as a Cap or as indices.
      val shared = (names ++ colliding.flatMap(c => c.attributes ++ c.sensors) :+ s"unused $round").distinct.sorted.toArray
      val builders = IndexedSeq.fill(1 + rnd.nextInt(6))(new CapTable.Builder(shared))
      caps.foreach { c =>
        val b = builders(rnd.nextInt(builders.length))
        if (rnd.nextBoolean()) b += c
        else {
          val attributes = c.attributes.map(b.indexOf).toArray
          val sensors = c.sensors.map(b.indexOf).toArray
          b.add(attributes, attributes.length, sensors, sensors.length, c.support)
        }
      }
      intercept[IllegalArgumentException](builders.head += Cap(Seq(s"absent $round"), Nil, 1))
      val want = CapTable(caps)
      val got = CapTable.merge(builders.map(_.result()))
      assert(got == want, s"round $round")
      assert(got.names.toSeq == want.names.toSeq, s"round $round: names")
      assert(builders.map(_.length).sum == caps.length)
    }
  }

  test("a builder stops at its budget, and at once when the budget is halted") {
    val budget = new CapTable.Budget(6000)
    val cap = Cap(Seq("a", "b"), Seq("s1", "s2", "s3"), 1)
    val names = Array("a", "b", "s1", "s2", "s3")
    val b = new CapTable.Builder(names, budget)
    // 5 members a CAP, charged every 1,024 CAPs: the first charge fits.
    (0 until 1024).foreach(_ => b += cap)
    assert(!budget.halted && !budget.exceeded)
    intercept[CapTable.Halted.type]((0 until 1024).foreach(_ => b += cap))
    assert(budget.halted && budget.exceeded && b.length == 2048)
    val halted = new CapTable.Budget(Long.MaxValue)
    halted.halt()
    val other = new CapTable.Builder(names, halted)
    intercept[CapTable.Halted.type]((0 until 1024).foreach(_ => other += cap))
    assert(!halted.exceeded && other.length == 1024)
  }

  test("distinct CAPs whose lists join to the same strings keep one order") {
    val orders = colliding.permutations.map(CapTable(_).toSeq).toSet
    assert(orders.size == 1)
    assert(JoinedOrder.holds(orders.head, colliding))
  }

  test("a table whose columns do not fit together is rejected") {
    val ok = CapTable(Seq(Cap(Seq("a"), Seq("b", "c"), 1)))
    def copy(names: Array[String] = ok.names, bounds: Array[Int] = ok.bounds, members: Array[Int] = ok.members) =
      new CapTable(names, bounds, members, ok.support)
    assert(copy() == ok)
    intercept[IllegalArgumentException](copy(names = Array("b", "a", "c")))
    intercept[IllegalArgumentException](copy(names = Array("a", "a", "c")))
    intercept[IllegalArgumentException](copy(bounds = Array(0, 2, 1)))
    intercept[IllegalArgumentException](copy(bounds = Array(0, 1, 2)))
    intercept[IllegalArgumentException](copy(members = Array(0, 1, 3)))
    intercept[IllegalArgumentException](copy(members = Array(0, -1, 2)))
  }
}
