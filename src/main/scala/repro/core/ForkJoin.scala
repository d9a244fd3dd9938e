package repro.core

import java.util.concurrent.atomic.AtomicReference

/** Runs independent tasks on the driver's threads: stage 4's shares
  * ([[Miscela]]) and the payload writers and points renderers of
  * `JsonExport`. Threads are started inside the call and joined there;
  * there is no pool, and no thread outlives the call.
  */
object ForkJoin {

  /** `0 until n` dealt round-robin to k = max(1, min(parallelism, n))
    * shares: share j holds the numbers that are j modulo k.
    */
  def deal(n: Int, parallelism: Int): Seq[Range] = {
    val k = math.max(1, math.min(parallelism, n))
    Seq.tabulate(k)(j => j until n by k)
  }

  /** Runs the tasks at once, task 0 on the calling thread and task j > 0 on
    * a thread named `name-j`, which inherits the caller's Spark local
    * properties (so its jobs keep the caller's job group), and returns
    * their results in task order. `stop`, which should end the other tasks
    * early, runs on the first failure and when the caller's wait is
    * interrupted; the call still waits for every thread. Then an
    * interrupted wait throws `InterruptedException` (the first failure, if
    * any, suppressed in it); otherwise the first failure is rethrown as is.
    */
  def apply[A](name: String, tasks: Seq[() => A], stop: () => Unit = () => ()): Seq[A] = {
    val results = new Array[Any](tasks.length)
    val failure = new AtomicReference[Throwable]
    def fail(e: Throwable): Unit = if (failure.compareAndSet(null, e)) stop()
    def run(j: Int): Unit = try results(j) = tasks(j)() catch { case e: Throwable => fail(e) }
    val threads = (1 until tasks.length).map(j => new Thread(() => run(j), s"$name-$j"))
    var interrupted = false
    try {
      threads.foreach(_.start())
      if (tasks.nonEmpty) run(0)
    } catch { case e: Throwable => fail(e) } // a thread that could not start
    finally {
      threads.foreach { t =>
        while (t.isAlive) {
          try t.join()
          catch {
            case _: InterruptedException =>
              interrupted = true
              stop()
          }
        }
      }
    }
    if (interrupted) {
      val e = new InterruptedException(s"interrupted while waiting for the $name threads")
      Option(failure.get).foreach(e.addSuppressed)
      throw e
    }
    Option(failure.get).foreach(e => throw e)
    results.toSeq.asInstanceOf[Seq[A]]
  }
}
