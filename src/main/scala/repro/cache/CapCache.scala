package repro.cache

import java.nio.{BufferUnderflowException, ByteBuffer}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, NoSuchFileException, Path, Paths, StandardCopyOption}
import java.security.MessageDigest

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{Cap, CapParams, CapTable}

/** The paper's caching mechanism (Section 3.3), MongoDB replaced by a
  * parameter-keyed file store on the local filesystem (see DESIGN.md
  * "Substitutions").
  *
  * "We store the name of the dataset, parameters, and CAPs … Before
  * computing CAPs by MISCELA, our system searches for CAPs with the same
  * parameters and the name of the dataset from the database."
  *
  * A CAP set is small, so entries are written and read on the driver. Keys
  * are a SHA-256 of the key material: a layout tag, the dataset name and
  * the canonical parameter string. Each entry is one file, `<key>.caps`,
  * holding a [[CapTable]]:
  *
  *  - the key material, so that a (astronomically unlikely) hash collision,
  *    or an entry of another layout, is detected rather than served;
  *  - the names: their count, then each as length-prefixed UTF-8;
  *  - the CAP count n, then the table's `bounds` (2n + 1 ints), `members`
  *    and `support` (n longs), all big-endian.
  *
  * An entry is written to a staging file and renamed over `<key>.caps`, so
  * it is either whole or absent. A file that does not decode, such as an
  * empty or cut-off one, is a miss, and the next put replaces it.
  *
  * [[getOrCompute]] takes and serves the CAPs as a [[CapTable]], the form
  * `Miscela.mine` returns, so a miss runs no Spark job of its own. [[get]]
  * and [[put]] adapt the one decoder and encoder to a `Dataset[Cap]`; `put`
  * collects its Dataset on the driver.
  */
final class CapCache(root: String) {

  /** The entry file of (dataset, params) and its raw key material. */
  private def entryOf(dataset: String, params: CapParams): (Path, String) = {
    // The layout tag makes an entry of an earlier layout a miss.
    val material = s"cap-table-1|$dataset|${params.cacheKey}"
    val digest = MessageDigest.getInstance("SHA-256").digest(material.getBytes(UTF_8))
    (Paths.get(root, digest.map("%02x".format(_)).mkString + ".caps"), material)
  }

  /** The CAPs stored for (dataset, params); None unless an entry that
    * decodes is stored under exactly that key material.
    */
  private def load(dataset: String, params: CapParams): Option[CapTable] = {
    val (file, material) = entryOf(dataset, params)
    try {
      val in = ByteBuffer.wrap(Files.readAllBytes(file))
      if (readString(in) != material) None
      else {
        val names = Array.fill(count(in, 4))(readString(in))
        val n = count(in, 8)
        val bounds = readInts(in, 2 * n + 1)
        val members = readInts(in, bounds(2 * n))
        val support = new Array[Long](n)
        in.asLongBuffer().get(support)
        if (in.remaining() != 8 * n) None
        else Some(new CapTable(names, bounds, members, support))
      }
    } catch {
      case _: NoSuchFileException | _: BufferUnderflowException | _: IllegalArgumentException => None
    }
  }

  /** True iff a result for (dataset, params) is stored. */
  def contains(dataset: String, params: CapParams): Boolean = load(dataset, params).isDefined

  /** Stores `caps` for (dataset, params), replacing any previous entry.
    * If the write fails, the previous entry (or none) stays. Of two
    * concurrent puts for the same key, one entry survives.
    */
  def put(dataset: String, params: CapParams, caps: Dataset[Cap]): Unit =
    write(dataset, params, CapTable(caps.collect().toIndexedSeq))

  private def write(dataset: String, params: CapParams, caps: CapTable): Unit = {
    val (file, material) = entryOf(dataset, params)
    val strings = (material +: caps.names).map(_.getBytes(UTF_8))
    val out = ByteBuffer.allocate(
      strings.map(4 + _.length).sum + 4 + 4 + 4 * (caps.bounds.length + caps.members.length) + 8 * caps.length)
    out.putInt(strings(0).length).put(strings(0)).putInt(caps.names.length)
    strings.tail.foreach(s => out.putInt(s.length).put(s))
    out.putInt(caps.length)
    out.asIntBuffer().put(caps.bounds).put(caps.members)
    out.position(out.position() + 4 * (caps.bounds.length + caps.members.length))
    out.asLongBuffer().put(caps.support)
    val staged = Files.createTempFile(Files.createDirectories(Paths.get(root)), "staging-", "")
    try {
      Files.write(staged, out.array())
      // rename(2), which replaces an existing entry in one step.
      Files.move(staged, file, StandardCopyOption.ATOMIC_MOVE)
    } finally Files.deleteIfExists(staged) // only after a failure is it still there
  }

  /** Reads a count of items that take at least `width` bytes each. */
  private def count(in: ByteBuffer, width: Int): Int = fits(in, in.getInt(), width)

  /** `n`, if the rest of the entry can hold `n` items of `width` bytes. */
  private def fits(in: ByteBuffer, n: Int, width: Int): Int =
    if (n < 0 || n.toLong * width > in.remaining()) throw new BufferUnderflowException else n

  private def readString(in: ByteBuffer): String = {
    val length = count(in, 1)
    val s = new String(in.array(), in.position(), length, UTF_8)
    in.position(in.position() + length)
    s
  }

  private def readInts(in: ByteBuffer, n: Int): Array[Int] = {
    val ints = new Array[Int](fits(in, n, 4))
    in.asIntBuffer().get(ints)
    in.position(in.position() + 4 * n)
    ints
  }

  /** The stored result for (dataset, params), if any. */
  def get(spark: SparkSession, dataset: String, params: CapParams): Option[Dataset[Cap]] =
    load(dataset, params).map(spark.createDataset(_)(Cap.encoder))

  /** The interactive-analysis entry point: serve from the store when the
    * user re-submits known parameters, otherwise run MISCELA once, persist
    * its CAPs and serve those. A hit calls no Spark API and does not
    * evaluate `compute`; a miss evaluates it once and writes its table as
    * it is. Either way the CAPs come back in export order. Returns (caps,
    * cacheHit).
    */
  def getOrCompute(
      spark: SparkSession,
      dataset: String,
      params: CapParams,
  )(compute: => CapTable): (CapTable, Boolean) =
    load(dataset, params) match {
      case Some(cached) => (cached, true)
      case None =>
        val caps = compute
        write(dataset, params, caps)
        (caps, false)
    }
}
