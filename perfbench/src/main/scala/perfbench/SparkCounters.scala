package perfbench

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark work done under one job group: jobs, stages and tasks run, task
  * run time and shuffle bytes written.
  */
final class GroupStats {
  @volatile var jobs = 0
  @volatile var stages = 0
  @volatile var tasks = 0
  @volatile var taskRunMs = 0L
  @volatile var shuffleWriteBytes = 0L
}

/** Counts the Spark engine's work per job group. Requests and spans set
  * their own group (`SparkContext.setJobGroup`), so every job, and the
  * stages and tasks it runs, is charged to the request or span that
  * started it. Only traced runs register it.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {

  private val byGroup = new ConcurrentHashMap[String, GroupStats]()
  private val groupOfStage = new ConcurrentHashMap[Int, String]()
  private var flushes = 0

  def stats(group: String): GroupStats = byGroup.computeIfAbsent(group, _ => new GroupStats)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty(SparkCounters.GroupKey))).getOrElse("")
    e.stageIds.foreach(groupOfStage.put(_, group))
    stats(group).jobs += 1
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(groupOfStage.get(e.stageInfo.stageId)).foreach(stats(_).stages += 1)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(groupOfStage.get(e.stageId)).foreach { g =>
      val s = stats(g)
      s.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        s.taskRunMs += m.executorRunTime
        s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }

  /** Waits until every event posted so far has been delivered: the
    * listener bus is ordered, so once a marker job's task has ended, all
    * earlier jobs' events have been seen too.
    */
  def flush(): Unit = {
    flushes += 1
    val marker = s"${SparkCounters.FlushPrefix}$flushes"
    sc.setJobGroup(marker, "listener flush")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30_000_000_000L
    while (stats(marker).tasks == 0) {
      if (System.nanoTime() > deadline) throw new IllegalStateException("Spark listener bus did not drain in 30 s")
      Thread.sleep(2)
    }
  }
}

object SparkCounters {
  val GroupKey = "spark.jobGroup.id"
  val FlushPrefix = "flush-"
}
