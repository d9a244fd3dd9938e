package repro.core

import scala.util.Random

import org.apache.spark.SparkConf
import org.apache.spark.serializer.JavaSerializer
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
    val merged = CapTable.merge(runs.map(CapTable(_)))
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
        same(CapTable.merge(rnd.shuffle(parts).map(CapTable(_))), CapTable(caps), s"round $round")
        // Parts over disjoint names: each part's table knows only its own.
        val (left, right) = names.splitAt(names.length / 2)
        val disjoint = Seq(randomCaps(rnd, rnd.nextInt(100), left), randomCaps(rnd, rnd.nextInt(100), right))
        same(CapTable.merge(disjoint.map(CapTable(_))), CapTable(disjoint.flatten), s"round $round, disjoint")
      }
    }
  }

  test("property: the merged tables of k builders equal the table of all their CAPs, names included") {
    val rnd = new Random(16)
    (0 until 25).foreach { round =>
      val names = rnd.shuffle(trickyNames).take(2 + rnd.nextInt(trickyNames.length - 1)).toArray
      val caps = rnd.shuffle(randomCaps(rnd, rnd.nextInt(3000), names) ++ colliding)
      // Each CAP goes to one of 1–6 builders, added either as a Cap or as
      // indices into a name table that also holds names no CAP uses.
      val builders = IndexedSeq.fill(1 + rnd.nextInt(6))(new CapTable.Builder)
      caps.foreach { c =>
        val b = builders(rnd.nextInt(builders.length))
        if (rnd.nextBoolean()) b += c
        else {
          val table = b.names(names ++ c.attributes ++ c.sensors :+ s"unused $round")
          val index = (names ++ c.attributes ++ c.sensors).zipWithIndex.toMap
          val codes = c.attributes.map(index).toArray
          val ranks = c.sensors.map(index).toArray
          b.add(codes, codes.length, table, ranks, ranks.length, table, c.support)
        }
      }
      val want = CapTable(caps)
      val got = CapTable.merge(builders.map(_.result()))
      assert(got == want, s"round $round")
      assert(got.names.toSeq == want.names.toSeq, s"round $round: names")
      assert(builders.map(_.length).sum == caps.length)
    }
  }

  test("a builder stops at its budget, and at once when the budget is halted") {
    val budget = new CapTable.Budget(6000)
    val b = new CapTable.Builder(budget)
    val cap = Cap(Seq("a", "b"), Seq("s1", "s2", "s3"), 1)
    // 5 members a CAP, charged every 1,024 CAPs: the first charge fits.
    (0 until 1024).foreach(_ => b += cap)
    assert(!budget.halted && !budget.exceeded)
    intercept[CapTable.Halted.type]((0 until 1024).foreach(_ => b += cap))
    assert(budget.halted && budget.exceeded && b.length == 2048)
    val halted = new CapTable.Budget(Long.MaxValue)
    halted.halt()
    val other = new CapTable.Builder(halted)
    intercept[CapTable.Halted.type]((0 until 1024).foreach(_ => other += cap))
    assert(!halted.exceeded && other.length == 1024)
  }

  test("a table read back through Spark's Java serializer is equal") {
    val t = CapTable(randomCaps(new Random(5), 200, trickyNames) ++ colliding)
    val serializer = new JavaSerializer(new SparkConf()).newInstance()
    val back = serializer.deserialize[CapTable](serializer.serialize(t))
    assert(back == t)
    assert(back.names.toSeq == t.names.toSeq && back.bounds.toSeq == t.bounds.toSeq &&
      back.members.toSeq == t.members.toSeq && back.support.toSeq == t.support.toSeq)
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
