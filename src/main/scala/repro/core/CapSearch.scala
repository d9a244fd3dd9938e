package repro.core

import scala.collection.mutable

/** One sensor inside a component: its evolving-timestamp bitsets.
  *
  * @param plus  bitset of timestamps with a positive evolution
  * @param minus bitset of timestamps with a negative evolution
  */
final case class SensorEvents(id: String, attribute: String, plus: Array[Long], minus: Array[Long])

/** MISCELA step 4: CAP search within one spatially connected component.
  *
  * "We recursively conduct the CAP search with gradually expanding
  * spatially close sensors according to a tree structure" — the tree here
  * is a binary include/exclude enumeration of connected induced subgraphs:
  * every connected sensor set is rooted at its minimum-index member and,
  * along each path, a frontier vertex is either taken into the set or
  * forbidden forever, so each set is visited exactly once. Two
  * anti-monotone properties prune whole subtrees:
  *
  *  - support prune: the co-evolution support of a set only shrinks as the
  *    set grows, so an include-branch whose running bitset intersection
  *    drops below ψ is dead;
  *  - attribute prune: distinct attributes only grow, so an include-branch
  *    already exceeding μ distinct attributes is dead.
  *
  * Support of a set S under SameSign is |∩ plus| + |∩ minus| (all move up
  * together or all move down together); under AnySign it is
  * |∩ (plus ∪ minus)|. Both are intersections, hence anti-monotone.
  *
  * Each sensor enters the search as one bitset: under SameSign
  * its `plus` words followed by its `minus` words, under AnySign
  * `plus | minus`. Either way the support of a set is the popcount of the
  * AND of its members' bitsets: with the concatenated layout the plus
  * half and the minus half intersect separately, so the popcount is
  * |∩ plus| + |∩ minus|.
  *
  * This search runs inside an executor task (one component per task); the
  * distributed axis is the component, see [[Miscela]].
  */
object CapSearch {

  /** The bitset a sensor contributes to every set it joins (see above). */
  private def bits(s: SensorEvents, policy: SignPolicy): Array[Long] =
    policy match {
      case SignPolicy.SameSign => s.plus ++ s.minus
      case SignPolicy.AnySign  => s.plus.zip(s.minus).map { case (p, m) => p | m }
    }

  /** Support of an explicit sensor set (recomputed from scratch); shared
    * with the naive baseline and with tests.
    */
  def setSupport(members: Seq[SensorEvents], policy: SignPolicy): Int = {
    require(members.nonEmpty, "setSupport of empty set")
    Bits.cardinality(members.map(bits(_, policy)).reduce(Bits.and))
  }

  /** Enumerates all CAPs of one component.
    *
    * @param sensors component members, indexed 0..n-1
    * @param adj     adjacency lists over those indices (η-proximity edges
    *                restricted to the component)
    */
  def enumerate(sensors: Array[SensorEvents], adj: Array[Array[Int]], params: CapParams): Seq[Cap] = {
    val n = sensors.length
    if (n < 2) return Nil
    val out = mutable.ArrayBuffer.empty[Cap]
    val sets = sensors.map(bits(_, params.signPolicy))

    def emit(subIdx: List[Int], support: Int): Unit = {
      val attrs = subIdx.map(sensors(_).attribute).distinct.sorted
      if (attrs.size >= 2 || params.allowSingleAttribute)
        out += Cap(attrs, subIdx.map(sensors(_).id).sorted, support.toLong)
    }

    /** @param sub       current connected set (indices), non-empty
      * @param frontier  vertices adjacent to `sub`, not in it, not forbidden
      * @param forbidden vertices excluded along this path (incl. all < root)
      */
    def rec(sub: List[Int], state: Array[Long], frontier: List[Int], forbidden: Set[Int]): Unit = {
      if (sub.size == params.maxSensors || frontier.isEmpty) return
      val w = frontier.head
      val rest = frontier.tail
      // Include branch — pruned by the anti-monotone properties. A set is
      // emitted exactly once: at the moment its last member is included.
      val newState = Bits.and(sets(w), state)
      val support = Bits.cardinality(newState)
      val attrOk = (sub.map(sensors(_).attribute).toSet + sensors(w).attribute).size <= params.mu
      if (support >= params.psi && attrOk) {
        val withW = w :: sub
        emit(withW, support)
        val inSub = withW.toSet
        val newcomers = adj(w).iterator
          .filter(u => !forbidden(u) && !inSub(u) && !rest.contains(u))
          .toList
        rec(withW, newState, rest ++ newcomers, forbidden)
      }
      // Exclude branch: w never joins any extension of `sub` on this path.
      rec(sub, state, rest, forbidden + w)
    }

    var root = 0
    while (root < n) {
      val rootState = sets(root)
      // A root below ψ cannot seed anything: intersections only shrink.
      if (Bits.cardinality(rootState) >= params.psi) {
        val forbidden = (0 until root).toSet
        val frontier = adj(root).filter(_ > root).toList
        rec(root :: Nil, rootState, frontier, forbidden)
      }
      root += 1
    }
    out.toSeq
  }
}
