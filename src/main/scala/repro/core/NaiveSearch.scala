package repro.core

import scala.collection.mutable

/** Brute-force CAP search baseline.
  *
  * Enumerates *every* subset of a component's sensors up to `maxSensors`
  * and only then checks the CAP conditions — connectivity (BFS over the
  * induced subgraph), support (recomputed from scratch with no incremental
  * state and no anti-monotone pruning), and the attribute constraints.
  *
  * This is what CAP mining costs without MISCELA's tree search: O(2^n)
  * candidate sets per component versus MISCELA's pruned connected
  * enumeration. The T3 runtime bench compares the two; an equivalence
  * property test asserts they return identical pattern sets.
  */
object NaiveSearch {

  /** True iff the subgraph induced on `subset` is connected. */
  private[core] def isConnected(subset: Seq[Int], adj: Array[Array[Int]]): Boolean = {
    if (subset.isEmpty) return false
    val inSet = subset.toSet
    val seen = mutable.Set(subset.head)
    val queue = mutable.Queue(subset.head)
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      adj(v).foreach { u =>
        if (inSet(u) && !seen(u)) { seen += u; queue += u }
      }
    }
    seen.size == subset.size
  }

  /** Enumerates the CAPs of one component whose minimum member is a
    * selected root — the CAPs [[CapSearch.enumerateInto]] adds, in the
    * order this search meets them, exponentially slower.
    */
  def enumerate(
      sensors: Array[SensorEvents],
      adj: Array[Array[Int]],
      params: CapParams,
      roots: Int => Boolean = _ => true,
  ): Seq[Cap] = {
    val n = sensors.length
    val out = mutable.ArrayBuffer.empty[Cap]

    def subsets(start: Int, acc: List[Int]): Unit = {
      if (acc.size >= 2) {
        val attrs = acc.map(sensors(_).attribute).distinct.sorted
        val attrOk = attrs.size <= params.mu && (attrs.size >= 2 || params.allowSingleAttribute)
        if (attrOk && isConnected(acc, adj)) {
          val supp = CapSearch.setSupport(acc.map(sensors(_)), params.signPolicy)
          if (supp >= params.psi)
            out += Cap(attrs, acc.map(sensors(_).id).sorted, supp.toLong)
        }
      }
      if (acc.size < params.maxSensors) {
        var i = start
        while (i < n) {
          // Indices are picked in ascending order: the first is the minimum.
          if (acc.nonEmpty || roots(i)) subsets(i + 1, i :: acc)
          i += 1
        }
      }
    }

    subsets(0, Nil)
    out.toSeq
  }
}
