package repro.ingest

import java.io.BufferedReader
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.Using

/** The paper's scalable upload path (Section 3.2): "For scalably uploading
  * large datasets, we divide the file into 10,000 lines and send each
  * divided set to our system."
  *
  * [[split]] plays the browser side (divide `data.csv` into 10,000-line
  * chunks); [[reassemble]] plays the server side (receive chunks in order
  * and persist one logical file). The header travels only with chunk 0, as
  * a real uploader would send it once. Both stream their lines, so at most
  * one chunk is held in memory.
  */
object ChunkedUpload {

  val DefaultChunkLines = 10000

  private def lines(in: BufferedReader): Iterator[String] = in.lines().iterator().asScala

  /** Splits `csvPath` into `chunk-00000.csv`, `chunk-00001.csv`, … under
    * `outDir`; the header line stays on the first chunk only. Returns the
    * chunk paths in order.
    */
  def split(csvPath: String, outDir: String, chunkLines: Int = DefaultChunkLines): Seq[String] = {
    require(chunkLines > 0, s"chunkLines must be positive, got $chunkLines")
    Using.resource(Files.newBufferedReader(Paths.get(csvPath), UTF_8)) { in =>
      val header = in.readLine()
      require(header != null, s"empty csv: $csvPath")
      val base = Paths.get(outDir)
      Files.createDirectories(base)
      val body = lines(in)
      val groups = if (body.hasNext) body.grouped(chunkLines) else Iterator(Nil)
      groups.zipWithIndex.map { case (g, i) =>
        val content = if (i == 0) header +: g else g
        val p = base.resolve(f"chunk-$i%05d.csv")
        Files.write(p, content.mkString("\n").getBytes(UTF_8))
        p.toString
      }.toVector
    }
  }

  /** Reassembles chunks (in the given order) into one file at `outPath`. */
  def reassemble(chunkPaths: Seq[String], outPath: String): String = {
    require(chunkPaths.nonEmpty, "no chunks to reassemble")
    val out = Paths.get(outPath)
    Option(out.getParent).foreach(Files.createDirectories(_))
    Using.resource(Files.newBufferedWriter(out, UTF_8)) { w =>
      var first = true
      chunkPaths.foreach { p =>
        Using.resource(Files.newBufferedReader(Paths.get(p), UTF_8)) { in =>
          lines(in).foreach { line =>
            if (!first) w.write('\n')
            w.write(line)
            first = false
          }
        }
      }
    }
    outPath
  }
}
