package repro.perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Model.{Rates, WindowSpec, Workload}
import repro.core.Model.EventType
import repro.exec.Event
import repro.workload.{StreamGen, WorkloadGen}

/** One named benchmark workload, built with the Fig 14 generator
  * conventions: `WorkloadGen.generate` queries, a `StreamGen.uniform`
  * stream and `StreamGen.perWindowRates` cost-model rates.
  *
  * The query set is part of the workload and fixed by [[Spec.querySeed]];
  * the run's `--seed` draws the event stream. Every seed therefore poses
  * the same optimization problem over a fresh sample of events.
  */
final case class Spec(name: String,
                      queries: Int,
                      patternLen: Int,
                      types: Int,
                      backbones: Int,
                      keys: Int,
                      eventsPerWindow: Long,
                      durationSec: Long) {
  def events: Long = eventsPerWindow * durationSec / Spec.window.lengthSec
}

object Spec {
  val window: WindowSpec  = WindowSpec(60, 6)
  /** Each micro-batch of the traced stream pass covers one slide. */
  val batchSeconds: Long  = window.slideSec
  val querySeed: Long     = 23L
  val maxOptions: Int     = 64
  val maxLevelWidth: Long = 50000L

  val all: Vector[Spec] = Vector(
    Spec("shared-wide", queries = 60, patternLen = 10, types = 16, backbones = 2,
      keys = 64, eventsPerWindow = 30000, durationSec = 120),
    Spec("fleet", queries = 20, patternLen = 4, types = 24, backbones = 20,
      keys = 4096, eventsPerWindow = 60000, durationSec = 120),
  )

  def byName(name: String): Spec =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}

/** The generated inputs of one run. Generation, caching and sorting all
  * happen here, outside every timed interval.
  */
final class Inputs(val workload: Workload,
                   val rates: Rates,
                   val typeIds: Map[EventType, Int],
                   val events: Dataset[Event],
                   /** Events in time order, for the stream pass. */
                   val timeOrdered: Vector[Event],
                   /** Key groups sorted as `flatMapSortedGroups` sorts them. */
                   val keyGroups: Vector[Array[Event]])

object Inputs {
  def make(spark: SparkSession, spec: Spec, seed: Long): Inputs = {
    val workload = WorkloadGen.generate(spec.queries, spec.patternLen, spec.types,
      spec.backbones, Spec.window, Spec.querySeed)
    val events = StreamGen.uniform(spark, spec.events, spec.durationSec, spec.types,
      spec.keys, seed).cache()
    val local = events.collect()
    val byTimeType: Ordering[Event] = Ordering.by((e: Event) => (e.time, e.etype))
    val keyGroups = local.groupBy(_.key).toVector.sortBy(_._1)
      .map { case (_, es) => es.sorted(byTimeType) }
    new Inputs(workload,
      StreamGen.perWindowRates(spec.eventsPerWindow, spec.types),
      StreamGen.typeIds(spec.types),
      events,
      local.sorted(byTimeType).toVector,
      keyGroups)
  }
}
