package repro.core

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
  * enumerates connected induced subgraphs ESU-style (Wernicke, IEEE/ACM
  * TCBB 2006): every connected sensor set is rooted at its minimum-index
  * member, and a set grows only by a frontier vertex above the root that
  * no earlier sibling has already tried, so each set is visited exactly
  * once. Two anti-monotone properties prune whole subtrees:
  *
  *  - support prune: the co-evolution support of a set only shrinks as the
  *    set grows, so an extension whose running bitset intersection drops
  *    below ψ is dead;
  *  - attribute prune: distinct attributes only grow, so an extension
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
  * The walk allocates nothing per step. It keeps one intersection row per
  * depth, one `blocked` mark per vertex (vertices tried on this path,
  * members and frontier), the frontier as one shared stack whose child
  * range is contiguous, and a per-attribute member count for μ. Each CAP
  * goes into a [[CapTable.Builder]] as name indices from two reused
  * arrays, so nothing is allocated per CAP but the builder's growth.
  * Recursion depth is at most `maxSensors`.
  *
  * Subtrees under different roots are independent, so a caller may split
  * one component's search by root: see the `roots` selection and
  * [[Miscela.mine]], which deals (component, root) units to threads on the
  * driver, each filling its own builder over one shared names array
  * ([[enumerateInto]]).
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

  /** Adds to `into` the CAPs of one component whose minimum member is a
    * selected root. Each CAP goes in as its attributes' and sensors'
    * indices into the builder's names, which must hold every id and
    * attribute of `sensors`; no [[Cap]] or string is built.
    *
    * @param sensors component members, indexed 0..n-1
    * @param adj     adjacency lists over those indices (η-proximity edges
    *                restricted to the component)
    * @param roots   selects the roots to search; the union of the results
    *                over a partition of 0..n-1 is the full CAP set
    */
  private[core] def enumerateInto(
      sensors: Array[SensorEvents],
      adj: Array[Array[Int]],
      params: CapParams,
      into: CapTable.Builder,
      roots: Int => Boolean = _ => true,
  ): Unit = {
    val n = sensors.length
    if (n < 2) return
    val sets = sensors.map(bits(_, params.signPolicy))
    val psi = params.psi
    val maxSensors = params.maxSensors

    // Attributes as dense codes, for the μ count. Each sensor's attribute
    // and id as its index into the builder's names, whose order is String
    // order, so sorting the indices sorts the names.
    val attrCodes = sensors.map(_.attribute).distinct
    val attrOf = sensors.map(s => attrCodes.indexOf(s.attribute))
    val attrName = sensors.map(s => into.indexOf(s.attribute))
    val idName = sensors.map(s => into.indexOf(s.id))

    val rows = Array.fill(maxSensors)(new Array[Long](sets(0).length))
    val members = new Array[Int](maxSensors)
    val blocked = new Array[Boolean](n)
    val stack = new Array[Int](n)
    val attrCount = new Array[Int](attrCodes.length)
    var distinct = 0
    var root = 0

    val attributes = new Array[Int](maxSensors)
    val ids = new Array[Int](maxSensors)

    /** Adds the set `members(0 until size)` to `into`: its distinct
      * attributes, then its ids, each as ascending name indices.
      */
    def emit(size: Int, support: Int): Unit = {
      var k = 0
      while (k < size) {
        attributes(k) = attrName(members(k))
        ids(k) = idName(members(k))
        k += 1
      }
      java.util.Arrays.sort(attributes, 0, size)
      java.util.Arrays.sort(ids, 0, size)
      var nAttributes = 1
      k = 1
      while (k < size) {
        if (attributes(k) != attributes(nAttributes - 1)) { attributes(nAttributes) = attributes(k); nAttributes += 1 }
        k += 1
      }
      into.add(attributes, nAttributes, ids, size, support.toLong)
    }

    /** Pushes the unblocked neighbours of `w` above the root onto the stack
      * from `top` and marks them; returns the new top.
      */
    def pushNewcomers(w: Int, top: Int): Int = {
      var t = top
      val ns = adj(w)
      var k = 0
      while (k < ns.length) {
        val u = ns(k)
        if (u > root && !blocked(u)) { blocked(u) = true; stack(t) = u; t += 1 }
        k += 1
      }
      t
    }

    def unmark(from: Int, until: Int): Unit = {
      var k = from
      while (k < until) { blocked(stack(k)) = false; k += 1 }
    }

    /** Extends the set `members(0 until size)`, whose intersection is
      * `rows(size - 1)`, by each frontier vertex in `stack(from until top)`
      * in turn; a vertex tried here stays blocked for the later siblings.
      */
    def extend(size: Int, from: Int, top: Int): Unit = {
      var i = from
      while (i < top) {
        val w = stack(i)
        val a = attrOf(w)
        val grown = if (attrCount(a) == 0) distinct + 1 else distinct
        if (grown <= params.mu) {
          val support = Bits.andCount(rows(size - 1), sets(w), rows(size), psi)
          if (support >= psi) {
            members(size) = w
            attrCount(a) += 1
            val saved = distinct
            distinct = grown
            if (distinct >= 2 || params.allowSingleAttribute) emit(size + 1, support)
            if (size + 1 < maxSensors) {
              val newTop = pushNewcomers(w, top)
              extend(size + 1, i + 1, newTop)
              unmark(top, newTop)
            }
            distinct = saved
            attrCount(a) -= 1
          }
        }
        i += 1
      }
    }

    while (root < n) {
      // A root below ψ cannot seed anything: intersections only shrink.
      if (roots(root) && Bits.cardinality(sets(root)) >= psi) {
        System.arraycopy(sets(root), 0, rows(0), 0, rows(0).length)
        members(0) = root
        attrCount(attrOf(root)) = 1
        distinct = 1
        blocked(root) = true
        val top = pushNewcomers(root, 0)
        extend(1, 0, top)
        unmark(0, top)
        blocked(root) = false
        attrCount(attrOf(root)) = 0
      }
      root += 1
    }
  }
}
