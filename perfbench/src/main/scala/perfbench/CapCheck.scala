package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Path
import java.security.MessageDigest

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col

/** The correctness gate: a request's `caps.json`, with the seed's sensor
  * labels mapped back, must equal the workload's reference CAP set.
  */
object CapCheck {

  /** Count and digest of a CAP list, each CAP as the canonical line
    * `attributes|sensors|support` (both lists sorted, sensors under their
    * generator ids), the lines sorted.
    */
  def canonical(caps: Iterator[(Seq[String], Seq[String], Long)], original: String => String): Reference = {
    val lines = caps.map { case (attrs, sensors, support) =>
      s"${attrs.sorted.mkString(",")}|${sensors.map(original).sorted.mkString(",")}|$support"
    }.toArray.sorted
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes(UTF_8)))
    Reference(lines.length, md.digest().map("%02x".format(_)).mkString)
  }

  /** The CAPs of a `caps.json` payload as (attributes, sensors, support),
    * read with Spark's JSON reader rather than the program's own code.
    */
  def readCapsJson(spark: SparkSession, path: Path): Iterator[(Seq[String], Seq[String], Long)] =
    spark.read.option("multiLine", "true").json(path.toString)
      .select(col("attributes"), col("sensors"), col("support").cast("long"))
      .collect().iterator
      .map(r => (r.getSeq[String](0), r.getSeq[String](1), r.getLong(2)))
}
