package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerTaskEnd}

/** In-memory spans and counters of the traced pass. Spans nest through a
  * stack (only the main thread records); every span and counter
  * carries the id of the rep it belongs to. Nothing is written until
  * [[json]] is called at the end of the run.
  */
final class Tracer {
  final case class Span(id: Int, rep: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
    def ms: Double = (endNs - startNs) / 1e6
  }
  final case class Counter(rep: Int, span: Int, name: String, value: Double)

  private val spans    = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.ArrayBuffer.empty[Counter]
  private var stack    = List.empty[Int]
  private var nextId   = 0
  var rep: Int         = 0

  def span[A](name: String)(body: => A): A = {
    val id     = nextId
    val parent = stack.headOption.getOrElse(-1)
    nextId += 1
    stack ::= id
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(id, rep, name, parent, t0, System.nanoTime())
      stack = stack.tail
    }
  }

  /** Records a counter at the innermost open span. */
  def count(name: String, value: Double): Unit =
    counters += Counter(rep, stack.headOption.getOrElse(-1), name, value)

  /** Summed duration of the spans called `name` in the current rep. */
  def totalMs(name: String): Double =
    spans.iterator.filter(s => s.rep == rep && s.name == name).map(_.ms).sum

  def json: String = {
    val ss = spans.sortBy(_.id).map { s =>
      s"""{"id":${s.id},"rep":${s.rep},"name":${Json.str(s.name)},"parent":${s.parent},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }
    val cs = counters.map { c =>
      s"""{"rep":${c.rep},"span":${c.span},"name":${Json.str(c.name)},"value":${Json.num(c.value)}}"""
    }
    s"""{"spans":[${ss.mkString(",\n")}],\n"counters":[${cs.mkString(",\n")}]}"""
  }
}

object Tracer {
  /** Total collection time of every JVM garbage collector so far. */
  def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum
}

/** Task-level view of the Spark jobs between two [[mark]]s, from a
  * `SparkListener`. Listener events arrive asynchronously; a mark runs a
  * one-task job and waits for its end event, which the listener bus
  * delivers only after every event posted before it.
  */
final class SparkProbe(sc: SparkContext) extends SparkListener {
  final case class Task(stageId: Int, runMs: Long, shuffleWriteBytes: Long, engine: Boolean)

  private val MarkerGroup = "perfbench-marker-"
  private val tasks        = mutable.ArrayBuffer.empty[Task]
  private val markerStages = mutable.Set.empty[Int]
  private val markerJobs   = mutable.Map.empty[Int, Int]
  private val markersDone  = mutable.Set.empty[Int]
  private var nextMarker   = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    group.filter(_.startsWith(MarkerGroup)).foreach { g =>
      markerJobs(e.jobId) = g.stripPrefix(MarkerGroup).toInt
      markerStages ++= e.stageIds
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    markerJobs.remove(e.jobId).foreach(markersDone += _)
    notifyAll()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages.contains(e.stageId) && e.taskMetrics != null) {
      val engine = e.taskInfo.accumulables.exists(_.name.contains(SparkProbe.EngineAccumulator))
      tasks += Task(e.stageId, e.taskMetrics.executorRunTime,
        e.taskMetrics.shuffleWriteMetrics.bytesWritten, engine)
    }
  }

  /** Position in the task log after every job submitted so far has been seen. */
  def mark(): Int = {
    val id = synchronized { nextMarker += 1; nextMarker }
    sc.setJobGroup(MarkerGroup + id, "perfbench listener marker")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    synchronized {
      val deadline = System.currentTimeMillis() + 30000
      while (!markersDone.contains(id)) {
        val left = deadline - System.currentTimeMillis()
        if (left <= 0) throw new IllegalStateException("Spark listener marker never arrived")
        wait(left)
      }
      tasks.size
    }
  }

  def between(from: Int, until: Int): Vector[Task] = synchronized(tasks.slice(from, until).toVector)
}

object SparkProbe {
  /** Name under which `OnlineExecutors.run` registers its metrics accumulator. */
  val EngineAccumulator = "engine-metrics"
}
