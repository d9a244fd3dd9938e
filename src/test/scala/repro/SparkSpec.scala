package repro

import java.util.Properties
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue, CountDownLatch, TimeUnit}

import scala.jdk.CollectionConverters._

import org.apache.spark.executor.TaskMetrics
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted, SparkListenerTaskEnd, StageInfo}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `body` under the job group `group` and returns its value with
    * the jobs, stages and task metrics Spark ran for it. A one-task "drain"
    * job follows the body: a listener receives events in order, so once
    * that job starts, every event of the body's jobs has been seen.
    */
  def observe[A](group: String)(body: => A): (A, SparkSpec.Observed) = {
    val sc = spark.sparkContext
    val jobs = new ConcurrentLinkedQueue[SparkListenerJobStart]
    val stages = new ConcurrentLinkedQueue[StageInfo]
    val tasks = new ConcurrentLinkedQueue[TaskMetrics]
    val stageIds = ConcurrentHashMap.newKeySet[Int]()
    val drained = new CountDownLatch(1)
    val drain = s"$group-drain"
    def groupOf(p: Properties) = Option(p).map(_.getProperty("spark.jobGroup.id")).orNull
    val listener = new SparkListener {
      override def onJobStart(job: SparkListenerJobStart): Unit = groupOf(job.properties) match {
        case `group` => job.stageIds.foreach(stageIds.add(_)); jobs.add(job)
        case `drain` => drained.countDown()
        case _       =>
      }
      override def onStageSubmitted(stage: SparkListenerStageSubmitted): Unit =
        if (groupOf(stage.properties) == group) stages.add(stage.stageInfo)
      override def onTaskEnd(task: SparkListenerTaskEnd): Unit =
        if (stageIds.contains(task.stageId) && task.taskMetrics != null) tasks.add(task.taskMetrics)
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, group)
      val result = body
      sc.setJobGroup(drain, "listener drain")
      sc.parallelize(Seq(1), 1).count()
      assert(drained.await(30, TimeUnit.SECONDS), "the drain job never started")
      (result, SparkSpec.Observed(jobs.asScala.toSeq, stages.asScala.toSeq, tasks.asScala.toSeq))
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }
}

object SparkSpec {

  /** What `observe` saw: the jobs started, the stages
    * submitted and the metrics of every task of those jobs' stages.
    */
  final case class Observed(jobs: Seq[SparkListenerJobStart], stages: Seq[StageInfo], tasks: Seq[TaskMetrics])

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
