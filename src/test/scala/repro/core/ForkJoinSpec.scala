package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class ForkJoinSpec extends AnyFunSuite {

  /** The live threads whose name starts with `prefix`. */
  private def alive(prefix: String): Set[String] =
    Thread.getAllStackTraces.keySet.asScala.filter(t => t.getName.startsWith(prefix) && t.isAlive).map(_.getName).toSet

  /** Four tasks, each of which first runs `first`; a task for which it
    * returns true then waits for `stop` to run, ends a little later and
    * counts itself in `ended`.
    */
  private final class Stoppable(first: Int => Boolean) {
    val stops = new AtomicInteger
    val ended = new AtomicInteger
    private val stopped = new CountDownLatch(1)
    val tasks: Seq[() => Int] = Seq.tabulate(4) { j => () =>
      if (first(j) && stopped.await(10, TimeUnit.SECONDS)) {
        Thread.sleep(50)
        ended.incrementAndGet()
      }
      j
    }
    val stop: () => Unit = () => { stops.incrementAndGet(); stopped.countDown() }
  }

  test("results come back in task order, task 0 from the calling thread and task j from thread name-j") {
    val caller = Thread.currentThread().getName
    // Later tasks end first.
    val got = ForkJoin("fork-join-order", Seq.tabulate(5) { j => () =>
      Thread.sleep(10L * (5 - j))
      (j, Thread.currentThread().getName)
    })
    assert(got == (0 until 5).map(j => (j, if (j == 0) caller else s"fork-join-order-$j")))
    assert(alive("fork-join-order-").isEmpty)
  }

  test("a failure in task 0 or in task j > 0 runs stop and surfaces as itself once every thread has ended") {
    Seq(0, 2).foreach { f =>
      val boom = new IllegalStateException(s"task $f")
      val run = new Stoppable(j => if (j == f) throw boom else true)
      val e = intercept[IllegalStateException](ForkJoin("fork-join-fail", run.tasks, run.stop))
      assert(e eq boom, s"task $f")
      assert(run.stops.get == 1 && run.ended.get == 3, s"task $f: ${run.stops.get} stops, ${run.ended.get} ended")
      assert(alive("fork-join-fail-").isEmpty, s"task $f")
    }
  }

  test("an interrupted join runs stop, waits for every thread, then throws InterruptedException") {
    // Task 0 runs on the caller: it sets the caller's interrupt flag and
    // ends, so the caller's wait for the other tasks is interrupted.
    val run = new Stoppable(j => if (j == 0) { Thread.currentThread().interrupt(); false } else true)
    try {
      intercept[InterruptedException](ForkJoin("fork-join-interrupt", run.tasks, run.stop))
      assert(!Thread.currentThread().isInterrupted, "the flag is left set along with the exception")
      assert(run.stops.get == 1 && run.ended.get == 3, s"${run.stops.get} stops, ${run.ended.get} ended")
      assert(alive("fork-join-interrupt-").isEmpty)
    } finally Thread.interrupted()
  }

  test("no task or one task starts no thread and runs no stop") {
    val caller = Thread.currentThread()
    val stops = new AtomicInteger
    assert(ForkJoin[Thread]("fork-join-none", Nil, () => stops.incrementAndGet()).isEmpty)
    assert(ForkJoin("fork-join-one", Seq(() => Thread.currentThread()), () => stops.incrementAndGet()) == Seq(caller))
    assert(stops.get == 0)
  }

  test("property: deal's shares partition 0 until n round-robin into max(1, min(parallelism, n)) shares") {
    val prop = Prop.forAll(Gen.choose(0, 300), Gen.choose(0, 64)) { (n, parallelism) =>
      val shares = ForkJoin.deal(n, parallelism)
      val k = math.max(1, math.min(parallelism, n))
      val sizes = shares.map(_.length)
      shares.length == k && shares.flatten.sorted == (0 until n) && sizes.max - sizes.min <= 1 &&
        shares.zipWithIndex.forall { case (share, j) => share.forall(_ % k == j) }
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(19L)), prop)
    assert(result.passed, result.status)
  }
}
