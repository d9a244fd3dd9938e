package repro.cache

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, NoSuchFileException, Path, Paths, StandardCopyOption}
import java.security.MessageDigest

import org.apache.spark.sql.{Dataset, Encoders, SparkSession}

import repro.core.{Cap, CapParams}

/** The paper's caching mechanism (Section 3.3), MongoDB replaced by a
  * parameter-keyed file store on the local filesystem (see DESIGN.md
  * "Substitutions").
  *
  * "We store the name of the dataset, parameters, and CAPs … Before
  * computing CAPs by MISCELA, our system searches for CAPs with the same
  * parameters and the name of the dataset from the database."
  *
  * A CAP set is small, so entries are written and read on the driver. Keys
  * are a SHA-256 of (dataset name, canonical parameter string). Each entry
  * is one file, `<key>.caps`: the raw key material, so a (astronomically
  * unlikely) hash collision is detected rather than silently served, then
  * the CAP count and each CAP's attributes, sensors and support, every
  * string length-prefixed. An entry is written to a staging file and
  * renamed over `<key>.caps`, so it is either whole or absent.
  *
  * [[getOrCompute]] keeps the CAPs a plain driver-side sequence; [[get]]
  * and [[put]] adapt the one decoder and encoder to a `Dataset[Cap]`.
  */
final class CapCache(root: String) {

  /** The entry file of (dataset, params) and its raw key material. */
  private def entryOf(dataset: String, params: CapParams): (Path, String) = {
    val material = s"$dataset|${params.cacheKey}"
    val digest = MessageDigest.getInstance("SHA-256").digest(material.getBytes(UTF_8))
    (Paths.get(root, digest.map("%02x".format(_)).mkString + ".caps"), material)
  }

  /** The entry for (dataset, params), positioned after its key material;
    * None unless an entry is stored under exactly that material.
    */
  private def read(dataset: String, params: CapParams): Option[ByteBuffer] = {
    val (file, material) = entryOf(dataset, params)
    try Some(ByteBuffer.wrap(Files.readAllBytes(file))).filter(readStrings(_) == Seq(material))
    catch { case _: NoSuchFileException => None }
  }

  /** True iff a result for (dataset, params) is stored. */
  def contains(dataset: String, params: CapParams): Boolean = read(dataset, params).isDefined

  /** Stores `caps` for (dataset, params), replacing any previous entry.
    * If the write fails, the previous entry (or none) stays. Of two
    * concurrent puts for the same key, one entry survives.
    */
  def put(dataset: String, params: CapParams, caps: Dataset[Cap]): Unit =
    write(dataset, params, caps.collect().toIndexedSeq)

  private def write(dataset: String, params: CapParams, caps: IndexedSeq[Cap]): Unit = {
    val (file, material) = entryOf(dataset, params)
    val bytes = new ByteArrayOutputStream()
    val out = new DataOutputStream(bytes)
    writeStrings(out, Seq(material))
    out.writeInt(caps.length)
    caps.foreach { c =>
      writeStrings(out, c.attributes)
      writeStrings(out, c.sensors)
      out.writeLong(c.support)
    }
    val staged = Files.createTempFile(Files.createDirectories(Paths.get(root)), "staging-", "")
    try {
      Files.write(staged, bytes.toByteArray)
      // rename(2), which replaces an existing entry in one step.
      Files.move(staged, file, StandardCopyOption.ATOMIC_MOVE)
    } finally Files.deleteIfExists(staged) // only after a failure is it still there
  }

  private def writeStrings(out: DataOutputStream, strings: Seq[String]): Unit = {
    out.writeInt(strings.size)
    strings.foreach { s =>
      val bytes = s.getBytes(UTF_8)
      out.writeInt(bytes.length)
      out.write(bytes)
    }
  }

  private def readStrings(in: ByteBuffer): Seq[String] =
    Seq.fill(in.getInt()) {
      val bytes = new Array[Byte](in.getInt())
      in.get(bytes)
      new String(bytes, UTF_8)
    }

  /** The stored result for (dataset, params), if any. */
  def get(spark: SparkSession, dataset: String, params: CapParams): Option[Dataset[Cap]] =
    load(dataset, params).map(spark.createDataset(_)(Encoders.product[Cap]))

  private def load(dataset: String, params: CapParams): Option[IndexedSeq[Cap]] =
    read(dataset, params).map(in => IndexedSeq.fill(in.getInt())(Cap(readStrings(in), readStrings(in), in.getLong())))

  /** The interactive-analysis entry point: serve from the store when the
    * user re-submits known parameters, otherwise run MISCELA once, persist
    * its CAPs and serve those. A hit calls no Spark API; a miss collects
    * `compute` once. Returns (caps, cacheHit).
    */
  def getOrCompute(
      spark: SparkSession,
      dataset: String,
      params: CapParams,
  )(compute: => Dataset[Cap]): (IndexedSeq[Cap], Boolean) =
    load(dataset, params) match {
      case Some(cached) => (cached, true)
      case None =>
        val caps = compute.collect().toIndexedSeq
        write(dataset, params, caps)
        (caps, false)
    }
}
