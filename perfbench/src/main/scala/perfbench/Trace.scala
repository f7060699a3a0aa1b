package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** Spans and counters recorded from outside the program, around each call
  * into a layer.
  *
  * Every span and counter is filed under the current phase:
  *  - `setup`: input generation and CSR builds before the first timed pass
  *  - `pass`: the workload's one traced pass
  *  - `sub`: calls the pass makes inside a program function, re-run outside
  *    it so they can be timed (e.g. the two peels inside `DCSGreedy.run`)
  *  - `coverage`: every layer once on one small configuration, so that each
  *    per-layer metric is measured on every workload
  *
  * A disabled tracer runs bodies unchanged and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  var phase: String = "setup"

  private val nanos = mutable.LinkedHashMap.empty[(String, String), Long]
  private val counts = mutable.LinkedHashMap.empty[(String, String), Double]
  private val rowNanos = mutable.LinkedHashMap.empty[(String, String, String), Long]

  def span[T](layer: String, cfg: String)(body: => T): T =
    if (!enabled) body
    else {
      val t0 = System.nanoTime()
      try body
      finally {
        val dt = System.nanoTime() - t0
        nanos((phase, layer)) = nanos.getOrElse((phase, layer), 0L) + dt
        rowNanos((phase, layer, cfg)) = rowNanos.getOrElse((phase, layer, cfg), 0L) + dt
      }
    }

  def count(layer: String, v: Double): Unit =
    if (enabled) counts((phase, layer)) = counts.getOrElse((phase, layer), 0.0) + v

  def ms(phase: String, layer: String): Option[Double] = nanos.get((phase, layer)).map(_ / 1e6)

  /** Span totals of one phase, in first-seen order. */
  def layers(phase: String): Seq[(String, Double)] =
    nanos.toSeq.collect { case ((p, l), ns) if p == phase => l -> ns / 1e6 }

  def counter(phase: String, layer: String): Option[Double] = counts.get((phase, layer))

  /** Per-configuration span totals, `phase layer config ms`, for diagnosis. */
  def rows: Seq[String] =
    rowNanos.toSeq.map { case ((p, l, c), ns) => f"$p%-8s $l%-24s $c%-28s ${ns / 1e6}%12.3f ms" }
}

/** Spark job, stage, task and shuffle-write counts per tracer phase.
  *
  * The phase travels with each job as a local property, so work is
  * attributed to the phase that submitted it even though events arrive late.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters.PhaseKey
  private val stagePhase = mutable.HashMap.empty[Int, String]
  private val byPhase = mutable.HashMap.empty[(String, String), Double]

  private def add(phase: String, what: String, v: Double): Unit =
    byPhase((phase, what)) = byPhase.getOrElse((phase, what), 0.0) + v

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val phase = Option(e.properties).flatMap(p => Option(p.getProperty(PhaseKey))).getOrElse("none")
    add(phase, "spark.jobs", 1)
    e.stageInfos.foreach(s => stagePhase(s.stageId) = phase)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    add(stagePhase.getOrElse(e.stageInfo.stageId, "none"), "spark.stages", 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val phase = stagePhase.getOrElse(e.stageId, "none")
    add(phase, "spark.tasks", 1)
    if (e.taskMetrics != null) add(phase, "spark.shuffle_bytes", e.taskMetrics.shuffleWriteMetrics.bytesWritten.toDouble)
  }

  def get(phase: String, what: String): Option[Double] = synchronized(byPhase.get((phase, what)))
}

object SparkCounters {
  /** Local property that carries the tracer phase of a job. */
  val PhaseKey = "perfbench.phase"

  def register(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters
    sc.addSparkListener(c)
    c
  }
}
