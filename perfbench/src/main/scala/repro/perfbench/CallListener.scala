package repro.perfbench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

import scala.collection.mutable

/** What Spark executed for one traced call: its jobs and stages, shuffle
  * bytes, executor time, and how much of the call's wall time no job
  * covered (driver-side time).
  */
final case class SparkUse(
    jobs: Int,
    stages: Int,
    shuffleWriteMb: Double,
    shuffleReadMb: Double,
    taskBusyS: Double,
    gcS: Double,
    driverS: Double,
    /** Job seconds per call site, e.g. "collect at AmpcMis.scala:95". */
    bySite: Map[String, Double],
)

/** Attributes Spark jobs and stages to algorithm calls by job group. The
  * benchmark sets the group around each traced call (see [[trace]]).
  */
final class CallListener extends SparkListener {
  private val GroupKey = "spark.jobGroup.id"
  private final case class Job(group: String, site: String, start: Long, var end: Long)
  private final class Acc {
    var stages = 0; var write = 0L; var read = 0L; var run = 0L; var gc = 0L
  }
  private val jobs = mutable.Map.empty[Int, Job]
  private val stageGroup = mutable.Map.empty[Int, String]
  private val accs = mutable.Map.empty[String, Acc]
  /** SQL execution id -> the call site of the action that started it. */
  private val execSite = mutable.Map.empty[String, String]

  private def groupOf(p: java.util.Properties): String =
    Option(p).flatMap(q => Option(q.getProperty(GroupKey))).orNull

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = groupOf(e.properties)
    if (g != null) {
      // Jobs that adaptive execution submits from its own threads carry
      // the SQL execution's id; name them by the action that started it.
      val site = Option(e.properties.getProperty("spark.sql.execution.id")).flatMap(execSite.get)
        .orElse(Option(e.properties.getProperty("callSite.short"))).getOrElse("?")
      jobs(e.jobId) = Job(g, site, e.time, -1L)
      e.stageIds.foreach(s => stageGroup.getOrElseUpdate(s, g))
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart => synchronized { execSite(s.executionId.toString) = s.description }
    case _ =>
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stageGroup.get(info.stageId).foreach { g =>
      val a = accs.getOrElseUpdate(g, new Acc)
      a.stages += 1
      val tm = info.taskMetrics
      if (tm != null) {
        a.write += tm.shuffleWriteMetrics.bytesWritten
        a.read += tm.shuffleReadMetrics.totalBytesRead
        a.run += tm.executorRunTime
        a.gc += tm.jvmGCTime
      }
    }
  }

  /** Run `body` as job group `group` and return its result with what Spark
    * executed for it.
    */
  def trace[T](sc: SparkContext, group: String)(body: => T): (T, SparkUse) = {
    // The group alone, with no job description, so SQL executions keep
    // their call sites as descriptions.
    sc.setLocalProperty(GroupKey, group)
    val t0 = System.currentTimeMillis()
    val r = try body finally sc.setLocalProperty(GroupKey, null)
    val t1 = System.currentTimeMillis()
    ListenerBusDrain(sc)
    (r, take(group, t0, t1))
  }

  /** Summarise and forget everything recorded for `group`. */
  private def take(group: String, t0: Long, t1: Long): SparkUse = synchronized {
    val js = jobs.values.filter(_.group == group).toSeq
    val a = accs.remove(group).getOrElse(new Acc)
    jobs.filterInPlace((_, j) => j.group != group)
    stageGroup.filterInPlace((_, g) => g != group)
    val spans = js.map(j => (math.max(j.start, t0), math.min(if (j.end < 0) t1 else j.end, t1)))
      .filter(s => s._2 > s._1).sortBy(_._1)
    var covered = 0L; var reach = t0
    spans.foreach { case (s, e) =>
      if (e > reach) { covered += e - math.max(s, reach); reach = e }
    }
    val bySite = js.groupBy(_.site).map { case (k, v) =>
      k -> v.map(j => (if (j.end < 0) t1 else j.end) - j.start).sum / 1e3
    }
    SparkUse(js.size, a.stages, a.write / 1e6, a.read / 1e6, a.run / 1e3, a.gc / 1e3,
      (t1 - t0 - covered) / 1e3, bySite)
  }
}
