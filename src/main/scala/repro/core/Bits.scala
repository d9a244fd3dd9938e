package repro.core

/** Fixed-width bitset helpers over Array[Long] words.
  *
  * Evolving-timestamp sets are represented as bitsets indexed by the dense
  * time index, so the anti-monotone support of a growing sensor set is an
  * incremental AND + popcount — the heart of MISCELA's pruned search.
  */
object Bits {

  /** Number of 64-bit words needed for `nBits` bits. */
  def words(nBits: Int): Int = (nBits + 63) >>> 6

  /** Empty bitset of `nBits` bits. */
  def empty(nBits: Int): Array[Long] = new Array[Long](words(nBits))

  def set(a: Array[Long], bit: Int): Unit = a(bit >>> 6) |= (1L << (bit & 63))

  def get(a: Array[Long], bit: Int): Boolean = (a(bit >>> 6) & (1L << (bit & 63))) != 0

  /** New bitset = a AND b. */
  def and(a: Array[Long], b: Array[Long]): Array[Long] = {
    require(a.length == b.length, s"width mismatch: ${a.length} vs ${b.length}")
    val out = new Array[Long](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i) & b(i); i += 1 }
    out
  }

  /** Writes `a AND b` into `out` and returns its population count. Stops
    * as soon as the words left cannot lift the count to `atLeast`, leaving
    * the rest of `out` stale and returning a count below `atLeast`.
    */
  def andCount(a: Array[Long], b: Array[Long], out: Array[Long], atLeast: Int): Int = {
    val n = a.length
    var c = 0
    var i = 0
    while (i < n) {
      val x = a(i) & b(i)
      out(i) = x
      c += java.lang.Long.bitCount(x)
      i += 1
      if (c + ((n - i) << 6) < atLeast) return c
    }
    c
  }

  /** Population count. */
  def cardinality(a: Array[Long]): Int = {
    var c = 0
    var i = 0
    while (i < a.length) { c += java.lang.Long.bitCount(a(i)); i += 1 }
    c
  }

  /** Set bit indices, ascending. */
  def toSeq(a: Array[Long]): Seq[Int] =
    (0 until a.length * 64).filter(get(a, _))
}
