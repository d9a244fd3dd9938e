package repro.cache

import java.nio.charset.StandardCharsets
import java.nio.file.{FileSystemException, Files, NoSuchFileException, Path, Paths, StandardCopyOption}
import java.security.MessageDigest

import scala.util.Try

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{Cap, CapParams}

/** The paper's caching mechanism (Section 3.3), MongoDB replaced by a
  * parameter-keyed Parquet store on the local filesystem (see DESIGN.md
  * "Substitutions").
  *
  * "We store the name of the dataset, parameters, and CAPs … Before
  * computing CAPs by MISCELA, our system searches for CAPs with the same
  * parameters and the name of the dataset from the database."
  *
  * Keys are a SHA-256 of (dataset name, canonical parameter string); each
  * entry is a Parquet directory of [[Cap]] rows plus a `params.txt`
  * sidecar holding the raw key material, so a (astronomically unlikely)
  * hash collision is detected rather than silently served. An entry is
  * written under a staging directory and renamed into place, so it is
  * either whole or absent.
  */
final class CapCache(root: String) {

  private def keyOf(dataset: String, params: CapParams): (String, String) = {
    val material = s"$dataset|${params.cacheKey}"
    val digest = MessageDigest.getInstance("SHA-256").digest(material.getBytes(StandardCharsets.UTF_8))
    (digest.map("%02x".format(_)).mkString, material)
  }

  private def entryDir(key: String) = Paths.get(root, key)

  /** True iff a result for (dataset, params) is stored. */
  def contains(dataset: String, params: CapParams): Boolean = {
    val (key, material) = keyOf(dataset, params)
    val marker = entryDir(key).resolve("params.txt")
    Files.exists(marker) &&
    new String(Files.readAllBytes(marker), StandardCharsets.UTF_8) == material
  }

  /** Stores `caps` for (dataset, params), replacing any previous entry.
    * If the write fails, the previous entry (or none) stays. Of two
    * concurrent puts for the same key, one entry survives.
    */
  def put(dataset: String, params: CapParams, caps: Dataset[Cap]): Unit = {
    val (key, material) = keyOf(dataset, params)
    val store = Files.createDirectories(Paths.get(root))
    val staged = Files.createTempDirectory(store, s"staging-$key-")
    val retired = store.resolve(s"${staged.getFileName}-old")
    try {
      caps.write.parquet(staged.resolve("caps.parquet").toString)
      Files.write(staged.resolve("params.txt"), material.getBytes(StandardCharsets.UTF_8))
      val dir = entryDir(key)
      try Files.move(dir, retired, StandardCopyOption.ATOMIC_MOVE)
      catch { case _: NoSuchFileException => } // no previous entry
      try Files.move(staged, dir, StandardCopyOption.ATOMIC_MOVE)
      catch {
        // A concurrent put of the same key moved its entry in first.
        case _: FileSystemException if Files.exists(dir.resolve("params.txt")) => deleteTree(staged)
      }
    } catch {
      case e: Throwable =>
        discard(staged)
        throw e
    } finally deleteTree(retired)
  }

  /** Deletes a staging directory that will not be published. Tasks Spark
    * is still cancelling after a failed write may create files under it for
    * a moment, so the delete repeats until the directory has stayed gone
    * for three checks 50 ms apart.
    */
  private def discard(staged: Path): Unit = {
    var (absent, tries) = (0, 0)
    while (absent < 3 && tries < 100) {
      if (Files.exists(staged)) {
        absent = 0
        Try(deleteTree(staged))
      } else absent += 1
      tries += 1
      Thread.sleep(50)
    }
  }

  private def deleteTree(path: Path): Unit =
    if (Files.exists(path)) {
      val walk = Files.walk(path)
      try walk.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
      finally walk.close()
    }

  /** The stored result for (dataset, params), if any. */
  def get(spark: SparkSession, dataset: String, params: CapParams): Option[Dataset[Cap]] = {
    import spark.implicits._
    if (!contains(dataset, params)) None
    else Some(spark.read.parquet(entryDir(keyOf(dataset, params)._1).resolve("caps.parquet").toString).as[Cap])
  }

  /** The interactive-analysis entry point: serve from the store when the
    * user re-submits known parameters, otherwise run MISCELA and persist.
    * Returns (caps, cacheHit).
    */
  def getOrCompute(
      spark: SparkSession,
      dataset: String,
      params: CapParams,
  )(compute: => Dataset[Cap]): (Dataset[Cap], Boolean) =
    get(spark, dataset, params) match {
      case Some(cached) => (cached, true)
      case None =>
        val caps = compute
        put(dataset, params, caps)
        // Read back the persisted copy so downstream reuse does not
        // recompute the (lazy) mining plan.
        (get(spark, dataset, params).get, false)
    }
}
