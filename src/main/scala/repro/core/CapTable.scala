package repro.core

import java.util.{Arrays, Comparator}

import scala.collection.immutable.ArraySeq
import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}

import org.apache.spark.sql.Dataset

/** A CAP set in export order, as columns: each distinct attribute and
  * sensor id is stored once, in `names`, and every CAP refers to them by
  * index. This is the one form the CAPs take on the driver after mining:
  * the cache entry is written from it and decoded back into it, and every
  * payload is written from it (see `CapCache` and `JsonExport`).
  *
  * Export order sorts CAPs by attribute list, then sensor list (each joined
  * with ","), then support, comparing the joined strings with
  * `String.compareTo`; distinct lists that join to the same string go by
  * their names one by one. A CAP's id in the payloads is its index here.
  *
  * @param names   the distinct attribute and sensor ids, strictly ascending
  *                in `String` order, so that comparing two indices compares
  *                their names
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
) extends IndexedSeq[Cap] with Serializable {
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
}

object CapTable {

  /** `caps` in export order, as a table; a table is returned as is. The
    * CAPs are sorted by one stable merge sort (TimSort), so a list made of
    * k runs that are each in export order costs only the k-way merge.
    */
  def apply(caps: Seq[Cap]): CapTable = caps match {
    case table: CapTable => table
    case _               => inExportOrder(interned(caps))
  }

  /** The CAPs of `tables`, in export order, as one table. The names are the
    * union of the tables' names; each table's members are remapped to it
    * through a rank array, so no CAP is built and no name hashed per CAP.
    * Each table is a run in export order, so the sort only merges the runs.
    */
  def merge(tables: Seq[CapTable]): CapTable = {
    val names = tables.flatMap(_.names).distinct.sorted.toArray
    val keys: Array[AnyRef] = names.asInstanceOf[Array[AnyRef]]
    val n = tables.map(_.length).sum
    val bounds = new Array[Int](2 * n + 1)
    val members = new Array[Int](tables.map(_.members.length).sum)
    val support = new Array[Long](n)
    var caps = 0
    tables.foreach { t =>
      val rank = t.names.map(name => Arrays.binarySearch(keys, name: AnyRef))
      val from = bounds(2 * caps)
      var k = 0
      while (k < t.members.length) {
        members(from + k) = rank(t.members(k))
        k += 1
      }
      k = 1
      while (k < t.bounds.length) {
        bounds(2 * caps + k) = from + t.bounds(k)
        k += 1
      }
      System.arraycopy(t.support, 0, support, caps, t.length)
      caps += t.length
    }
    inExportOrder(new Columns(names, bounds, members, support))
  }

  /** The CAPs of `ds` as one table: each partition builds its own, and only
    * those tables are collected and merged. A Dataset made from an RDD of
    * CAPs, as [[Miscela.mine]]'s is, hands its CAP objects to the
    * partitions as they are, without encoding them into rows.
    */
  def collect(ds: Dataset[Cap]): CapTable =
    merge(ds.rdd.mapPartitions(caps => Iterator(CapTable(caps.toIndexedSeq))).collect().toSeq)

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

  /** The columns of `caps` in their given order, each name replaced by its
    * index in the sorted distinct names.
    */
  private def interned(caps: Seq[Cap]): Columns = {
    val index = new java.util.HashMap[String, Integer]
    val seen = ArrayBuffer.empty[String]
    val bounds = new Array[Int](2 * caps.length + 1)
    val members = new ArrayBuilder.ofInt
    val support = new Array[Long](caps.length)
    def add(name: String): Unit = {
      val known = index.get(name)
      if (known != null) members += known.intValue
      else {
        index.put(name, seen.length)
        members += seen.length
        seen += name
      }
    }
    var i = 0
    caps.foreach { c =>
      c.attributes.foreach(add)
      bounds(2 * i + 1) = members.length
      c.sensors.foreach(add)
      bounds(2 * i + 2) = members.length
      support(i) = c.support
      i += 1
    }
    val names = seen.toArray.sorted
    val rank = new Array[Int](names.length)
    names.indices.foreach(r => rank(index.get(names(r))) = r)
    new Columns(names, bounds, members.result().map(rank(_)), support)
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
