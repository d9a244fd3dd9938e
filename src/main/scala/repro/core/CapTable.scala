package repro.core

import java.util.{Arrays, Comparator}
import java.util.concurrent.atomic.AtomicLong

import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuilder
import scala.util.control.ControlThrowable

/** A CAP set in export order, as columns: each distinct attribute and
  * sensor id is stored once, in `names`, and every CAP refers to them by
  * index. This is the one form the CAPs take after mining: [[Miscela.mine]]
  * returns it, each of its search threads filling a [[CapTable.Builder]]
  * whose table [[CapTable.merge]] joins; the cache entry is written from
  * it and decoded back into it, and every payload is written from it (see
  * `CapCache` and `JsonExport`).
  *
  * Export order sorts CAPs by attribute list, then sensor list (each joined
  * with ","), then support, comparing the joined strings with
  * `String.compareTo`; distinct lists that join to the same string go by
  * their names one by one. A CAP's id in the payloads is its index here.
  *
  * @param names   attribute and sensor ids, strictly ascending in `String`
  *                order, so that comparing two indices compares their
  *                names; the tables of [[CapTable.apply]] and
  *                [[CapTable.merge]] hold exactly the names of their CAPs,
  *                a builder's table all of its builder's names
  * @param bounds  2n + 1 ascending offsets into `members`: CAP i's
  *                attributes are `members(bounds(2i) until bounds(2i + 1))`
  *                and its sensors `members(bounds(2i + 1) until bounds(2i + 2))`
  * @param members indices into `names`
  * @param support each CAP's support
  */
final class CapTable(
    val names: Array[String],
    val bounds: Array[Int],
    val members: Array[Int],
    val support: Array[Long],
) extends IndexedSeq[Cap] {
  require(bounds.length == 2 * support.length + 1 && bounds(0) == 0 && bounds.last == members.length,
    "CAP bounds do not match the members and supports")
  require(ascending(bounds), "CAP bounds are not ascending")
  require(members.forall(m => m >= 0 && m < names.length), "a CAP member is not a name")
  require((1 until names.length).forall(k => names(k - 1).compareTo(names(k)) < 0),
    "names are not strictly ascending")

  private def ascending(xs: Array[Int]): Boolean = {
    var k = 1
    while (k < xs.length && xs(k - 1) <= xs(k)) k += 1
    k >= xs.length
  }

  def length: Int = support.length

  def apply(i: Int): Cap = Cap(namesIn(bounds(2 * i), bounds(2 * i + 1)),
    namesIn(bounds(2 * i + 1), bounds(2 * i + 2)), support(i))

  private def namesIn(from: Int, until: Int): Seq[String] =
    ArraySeq.unsafeWrapArray(Array.tabulate(until - from)(k => names(members(from + k))))

  /** The CAPs as an array, in export order. */
  def collect(): Array[Cap] = Array.tabulate(length)(apply)
}

object CapTable {

  /** `caps` in export order, as a table; a table is returned as is. The
    * CAPs are sorted by one stable merge sort (TimSort), so a list made of
    * k runs that are each in export order costs only the k-way merge.
    */
  def apply(caps: Seq[Cap]): CapTable = caps match {
    case table: CapTable => table
    case _               =>
      val builder = new Builder(caps.iterator.flatMap(c => c.attributes ++ c.sensors).distinct.toArray.sorted)
      caps.foreach(builder += _)
      builder.result()
  }

  /** The CAPs of `tables`, in export order, as one table whose names are
    * those its CAPs hold. The tables share one names array, so their
    * columns are concatenated as they are, and the names that no CAP holds
    * are dropped once, from the concatenation. Each table is a run in
    * export order, so the sort only merges the runs.
    */
  def merge(tables: Seq[CapTable]): CapTable = {
    val names = tables.headOption.fold(Array.empty[String])(_.names)
    require(tables.forall(t => Arrays.equals(t.names.asInstanceOf[Array[AnyRef]], names.asInstanceOf[Array[AnyRef]])),
      "merged tables do not share one names array")
    val n = tables.map(_.length).sum
    val bounds = new Array[Int](2 * n + 1)
    val members = new Array[Int](tables.map(_.members.length).sum)
    val support = new Array[Long](n)
    var caps = 0
    tables.foreach { t =>
      val from = bounds(2 * caps)
      System.arraycopy(t.members, 0, members, from, t.members.length)
      var k = 1
      while (k < t.bounds.length) {
        bounds(2 * caps + k) = from + t.bounds(k)
        k += 1
      }
      System.arraycopy(t.support, 0, support, caps, t.length)
      caps += t.length
    }
    // Drop the names that no CAP holds: a used name's new index is the
    // number of used names before it.
    val used = new Array[Boolean](names.length)
    members.foreach(used(_) = true)
    val rank = used.scanLeft(0)((r, u) => if (u) r + 1 else r)
    var k = 0
    while (k < members.length) { members(k) = rank(members(k)); k += 1 }
    inExportOrder(new Columns(names.indices.filter(used).map(names).toArray, bounds, members, support))
  }

  /** The table of the CAPs of `in`, put in export order. */
  private def inExportOrder(in: Columns): CapTable = {
    val order = exportOrder(in)
    val bounds = new Array[Int](in.bounds.length)
    val members = new Array[Int](in.members.length)
    var k = 1
    order.foreach { c =>
      // The CAP's attributes, then its sensors.
      var part = 2 * c.intValue
      while (part < 2 * c.intValue + 2) {
        val length = in.bounds(part + 1) - in.bounds(part)
        System.arraycopy(in.members, in.bounds(part), members, bounds(k - 1), length)
        bounds(k) = bounds(k - 1) + length
        part += 1
        k += 1
      }
    }
    new CapTable(in.names, bounds, members, order.map(c => in.support(c.intValue)))
  }

  /** The indices of the CAPs of `in`, in export order. */
  private def exportOrder(in: Columns): Array[Integer] = {
    val order = Array.tabulate[Integer](in.support.length)(Integer.valueOf)
    Arrays.sort(order, new ExportOrder(in))
    order
  }

  /** A number of CAP members that the builders of one search share, and a
    * flag that stops them all. Each [[Builder]] charges its members in
    * batches, so that many threads adding many CAPs rarely meet here.
    */
  private[core] final class Budget(val limit: Long) {
    private val spent = new AtomicLong
    @volatile private var stop = false

    def charge(members: Long): Unit = if (spent.addAndGet(members) > limit) stop = true
    def halt(): Unit = stop = true
    def halted: Boolean = stop
    def exceeded: Boolean = spent.get > limit
  }

  /** Thrown by a [[Builder]] whose [[Budget]] is spent or halted; it
    * unwinds the search that is adding CAPs, and carries no message.
    */
  private[core] object Halted extends ControlThrowable

  /** Builds a table over a fixed names array from CAPs added one at a
    * time, in any order. A search adds each CAP as indices into `names`
    * ([[add]]), so no string is looked at per CAP; a [[Cap]] is added by
    * looking its names up ([[+=]]). Every 1,024 CAPs the builder charges
    * their members to `budget`, and throws [[Halted]] once the budget is
    * spent or halted. [[result]] puts the CAPs in export order, over all of
    * `names`. One builder is filled by one thread; the tables of builders
    * over one names array are joined by [[merge]].
    *
    * @param names distinct names, strictly ascending in `String` order
    */
  private[core] final class Builder(val names: Array[String], budget: Budget = new Budget(Long.MaxValue)) {
    private val bounds = new ArrayBuilder.ofInt
    private val members = new ArrayBuilder.ofInt
    private val support = new ArrayBuilder.ofLong
    private var uncharged = 0 // CAPs added since the last charge
    private var charged = 0   // members charged so far
    bounds += 0

    /** The number of CAPs added. */
    def length: Int = support.length

    /** The index of `name` in [[names]]. */
    def indexOf(name: String): Int = {
      val m = Arrays.binarySearch(names.asInstanceOf[Array[AnyRef]], name: AnyRef)
      require(m >= 0, s"'$name' is not a name of this builder")
      m
    }

    /** Adds the CAP whose attributes are `names(attributes(k))` for k below
      * `nAttributes`, and whose sensors are `names(sensors(k))` for k below
      * `nSensors`.
      */
    def add(attributes: Array[Int], nAttributes: Int, sensors: Array[Int], nSensors: Int, support: Long): Unit = {
      members.addAll(attributes, 0, nAttributes)
      bounds += members.length
      members.addAll(sensors, 0, nSensors)
      bounds += members.length
      this.support += support
      uncharged += 1
      if (uncharged == 1024) {
        budget.charge(members.length - charged)
        charged = members.length
        uncharged = 0
        if (budget.halted) throw Halted
      }
    }

    /** Adds `cap`, whose names must all be in [[names]]. */
    def +=(cap: Cap): this.type = {
      val attributes = cap.attributes.map(indexOf).toArray
      val sensors = cap.sensors.map(indexOf).toArray
      add(attributes, attributes.length, sensors, sensors.length, cap.support)
      this
    }

    /** The CAPs added, in export order, over [[names]]. */
    def result(): CapTable = inExportOrder(new Columns(names, bounds.result(), members.result(), support.result()))
  }

  /** A CAP table's columns, in any CAP order. */
  private final class Columns(val names: Array[String], val bounds: Array[Int], val members: Array[Int],
      val support: Array[Long])

  /** Export order over the CAPs of `t`, from its name indices: the order
    * of `(attributes.mkString(","), sensors.mkString(","), support)`,
    * without building the joined strings.
    */
  private final class ExportOrder(t: Columns) extends Comparator[Integer] {

    // Whether a name is a prefix of another. Names are sorted, so the
    // names that start with a given one directly follow it.
    private val isPrefix =
      Array.tabulate(t.names.length)(m => m + 1 < t.names.length && t.names(m + 1).startsWith(t.names(m)))

    def compare(i: Integer, j: Integer): Int = {
      val a = 2 * i.intValue
      val b = 2 * j.intValue
      var c = joined(t.bounds(a), t.bounds(a + 1), t.bounds(b), t.bounds(b + 1))
      if (c == 0) c = joined(t.bounds(a + 1), t.bounds(a + 2), t.bounds(b + 1), t.bounds(b + 2))
      if (c == 0) c = java.lang.Long.compare(t.support(i.intValue), t.support(j.intValue))
      // Lists whose joined names collide ([] and [""], or ["a,b"] and
      // ["a", "b"]) go by their names one by one, so that the order does
      // not depend on the order the CAPs arrive in.
      if (c == 0) c = Arrays.compare(t.members, t.bounds(a), t.bounds(a + 1), t.members, t.bounds(b), t.bounds(b + 1))
      if (c == 0) c = Arrays.compare(t.members, t.bounds(a + 1), t.bounds(a + 2), t.members, t.bounds(b + 1), t.bounds(b + 2))
      c
    }

    /** Compares the joined names of `members(x until xEnd)` and
      * `members(y until yEnd)`.
      */
    private def joined(x: Int, xEnd: Int, y: Int, yEnd: Int): Int = {
      // An empty list joins to "", as does the list of one empty name.
      if (x == xEnd || y == yEnd) return text(x, xEnd).compareTo(text(y, yEnd))
      var i = x
      var j = y
      while (i < xEnd && j < yEnd) {
        val m = t.members(i)
        val n = t.members(j)
        if (m != n) {
          // Names that differ at a common position compare as their
          // indices do. If one is a prefix of the other, the characters
          // after it decide, and those may come from the next name.
          val lo = math.min(m, n)
          return if (isPrefix(lo) && t.names(math.max(m, n)).startsWith(t.names(lo)))
                   text(i, xEnd).compareTo(text(j, yEnd))
                 else Integer.compare(m, n)
        }
        i += 1
        j += 1
      }
      // Equal so far: a list with names left joins to the longer string.
      Integer.compare(xEnd - i, yEnd - j)
    }

    private def text(from: Int, until: Int): String =
      (from until until).map(k => t.names(t.members(k))).mkString(",")
  }
}
