package repro.exec

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.util.AccumulatorV2
import CompiledPlan.CompiledWorkload

/** Spark accumulator merging [[EngineMetrics]] across key-group tasks. */
final class MetricsAccumulator extends AccumulatorV2[EngineMetrics, EngineMetrics] {
  private var m = new EngineMetrics
  override def isZero: Boolean =
    m.events == 0 && m.workUnits == 0 && m.peakStateUnits == 0
  override def copy(): MetricsAccumulator = {
    val a = new MetricsAccumulator; a.m.merge(m); a
  }
  override def reset(): Unit = m = new EngineMetrics
  override def add(v: EngineMetrics): Unit = m.merge(v)
  override def merge(other: AccumulatorV2[EngineMetrics, EngineMetrics]): Unit =
    m.merge(other.value)
  override def value: EngineMetrics = m
}

/** The online executors of the paper's §8.2 on Spark: the per-key shared
  * stateful operator is realized as
  * `repartition(n, key).groupBy(key).flatMapSortedGroups(time)` — one
  * [[KeyGroupEngine]] per key group evaluates the *whole workload* from
  * the compiled sharing graph, so shared segment states are reused across
  * queries inside the operator. Per-key partial counts are then summed by
  * a Catalyst aggregation.
  *
  * Key groups are independent, so the engine stage gets one partition per
  * core: one hash exchange on the `key` column into `defaultParallelism`
  * partitions. The explicit partition count matters. Adaptive execution
  * sizes partitions by shuffle *bytes*, and the event shuffle is small,
  * so it would fold every partition into one task, but this operator's
  * cost is CPU per event. Grouping on the same column lets that one
  * exchange satisfy the operator's clustering, so no second shuffle is
  * planned (a `groupByKey` lambda would append a key column and add one).
  */
object OnlineExecutors {

  /** Workload-level result: `(query_id, window_start, cnt)` plus the
    * engine work/memory meters and wall-clock of the action.
    */
  final case class RunResult(counts: DataFrame, metrics: EngineMetrics, millis: Double)

  /** Runs the engine over `events` under compiled workload `cw` and
    * materializes the counts (the returned DataFrame is cached).
    */
  def run(spark: SparkSession, events: Dataset[Event], cw: CompiledWorkload): RunResult = {
    import spark.implicits._
    val acc = new MetricsAccumulator
    spark.sparkContext.register(acc, "engine-metrics")
    val perKey = events
      .repartition(spark.sparkContext.defaultParallelism, $"key")
      .groupBy($"key").as[Long, Event]
      .flatMapSortedGroups($"time", $"etype") { (_: Long, it: Iterator[Event]) =>
        val metrics = new EngineMetrics
        val engine  = new KeyGroupEngine(cw, metrics)
        val out     = engine.run(it).toVector
        acc.add(metrics)
        out
      }
    val counts = perKey
      .groupBy($"queryId".as("query_id"), $"windowStart".as("window_start"))
      .agg(sum($"count").as("cnt"))
      .select($"query_id", $"window_start", $"cnt")
    val t0 = System.nanoTime()
    val materialized = counts.cache()
    materialized.count() // force
    val ms = (System.nanoTime() - t0) / 1e6
    RunResult(materialized, acc.value, ms)
  }
}
