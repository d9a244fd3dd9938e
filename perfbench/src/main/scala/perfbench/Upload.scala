package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}

import scala.jdk.CollectionConverters._
import scala.util.Random

/** The workload seed's only effect on the program's input. The generators
  * have no seed, so the seed relabels the sensor ids, consistently in
  * `data.csv` and `location.csv`, and shuffles the row order of both files.
  * That changes partitioning, component labels and search root order, but
  * must not change the CAP set.
  */
object Upload {

  /** Rewrites both files in place; returns the map from each new id back to
    * the generator's id.
    */
  def scramble(dataCsv: Path, locationCsv: Path, seed: Long): Map[String, String] = {
    val rnd = new Random(seed)
    val location = lines(locationCsv)
    val ids = location.tail.map(idOf).distinct.sorted
    val fresh = ids.zip(rnd.shuffle(ids.indices.toVector).map(i => f"s$i%05d")).toMap
    rewrite(locationCsv, location, fresh, rnd)
    rewrite(dataCsv, lines(dataCsv), fresh, rnd)
    fresh.map(_.swap)
  }

  private def lines(p: Path): Vector[String] = Files.readAllLines(p, UTF_8).asScala.toVector

  private def idOf(line: String): String = line.substring(0, line.indexOf(','))

  private def rewrite(p: Path, ls: Vector[String], fresh: Map[String, String], rnd: Random): Unit = {
    val body = ls.tail.map(l => fresh(idOf(l)) + l.substring(l.indexOf(',')))
    Files.write(p, (ls.head +: rnd.shuffle(body)).mkString("\n").getBytes(UTF_8))
  }
}
