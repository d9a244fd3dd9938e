package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext

/** One timed interval at a layer boundary, with the counts recorded there. */
final case class Span(
    id: Int,
    name: String,
    request: String,
    parent: Int,
    startNs: Long,
    endNs: Long,
    counts: Map[String, Double],
) {
  def durNs: Long = endNs - startNs
}

/** Records spans in memory; they are written out when the run ends. Each
  * span also sets the Spark job group `request/name`, so [[SparkCounters]]
  * can charge Spark jobs to it.
  */
final class Tracer(sc: SparkContext) {

  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var nextId = 0
  private var open: List[(Int, String)] = Nil
  private var request = ""

  /** Runs `body` as span `name`, the root of request `id`. */
  def root[T](id: String, name: String)(body: => T): T = {
    request = id
    span(name)(body)
  }

  /** Times `body` as a child of the innermost open span. */
  def span[T](name: String)(body: => T): T = counted(name)(body)(_ => Map.empty)

  /** As [[span]], with counts read from the result once the span has ended. */
  def counted[T](name: String)(body: => T)(counts: T => Map[String, Double]): T = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    val t0 = System.nanoTime()
    open = (id, name) :: open
    sc.setJobGroup(group(name), name)
    try {
      val out = body
      val t1 = System.nanoTime()
      spans += Span(id, name, request, parent, t0, t1, counts(out))
      out
    } finally {
      open = open.tail
      open.headOption match {
        case Some((_, outer)) => sc.setJobGroup(group(outer), outer)
        case None             => sc.clearJobGroup()
      }
    }
  }

  def group(name: String): String = s"$request/$name"

  /** Span durations minus their children's: the time each span spent in
    * its own layer.
    */
  def selfNs(of: Seq[Span]): Map[Int, Long] = {
    val childNs = of.groupBy(_.parent).view.mapValues(_.map(_.durNs).sum).toMap
    of.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }
}
