package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.functions.sum
import repro.core.{CostModel, Expansion, Optimizer, Reduction, SharablePatterns, SharonGraph}
import repro.exec.{EngineMetrics, Event, KeyGroupEngine, OnlineExecutors, QueryWindowCount,
  StructuredSharon}
import repro.exec.StructuredSharon.StreamRunResult
import repro.exec.CompiledPlan.CompiledWorkload
import Bench._

/** The traced pass, run after the untraced rounds: every layer on every
  * workload, including a micro-batch stream pass (`StructuredSharon.run`
  * over the same events, one batch per [[Spec.batchSeconds]] of event
  * time), with a span around each public call into the program,
  * counters recorded at the same boundaries, and Spark task statistics
  * from a listener. Spans and counters are written to
  * `<work-dir>/traces/<workload>-seed<seed>.json` at the end; the
  * per-layer metrics are medians over [[TracedPass.Rounds]] rounds.
  */
final class TracedPass(b: Bench, untracedSetupS: Double, untracedRunS: Double) {
  import b.spark.implicits._

  private val tracer = new Tracer
  private val probe  = new SparkProbe(b.spark.sparkContext)

  /** `(layer, metric, value, unit)` of every per-layer metric measured. */
  def run(): Vector[(String, String, Double, String)] = {
    b.spark.sparkContext.addSparkListener(probe)
    val perRound =
      try (0 until TracedPass.Rounds).flatMap { r => tracer.rep = r; tracer.span("rep")(round()) }
      finally b.spark.sparkContext.removeSparkListener(probe)
    val dir = Paths.get(b.args.workDir, "traces")
    Files.createDirectories(dir)
    val file = dir.resolve(s"${b.spec.name}-seed${b.args.seed}.json")
    Files.write(file, tracer.json.getBytes(StandardCharsets.UTF_8))
    println(s"  trace written to $file")
    for {
      (layer, metrics) <- TracedPass.Layers
      (name, unit)     <- metrics
      vs = perRound.flatMap(_.get(name)).toVector
      if vs.nonEmpty
    } yield (layer, name, median(vs), unit)
  }

  private def round(): Option[Map[String, Double]] = {
    val out = Map.newBuilder[String, Double]
    def put(name: String, v: Double): Unit = { tracer.count(name, v); out += name -> v }

    quiesce()
    val gc0 = Tracer.gcMs
    val setup = b.checked("traced setup") {
      tracer.span("setup") {
        val r = tracer.span("core.sharon")(b.optimize())
        (r, tracer.span("exec.compile")(b.compile(r)))
      }
    }(_ => None)
    val setupGcMs = Tracer.gcMs - gc0
    setup.map { case (res, cw) =>
      val phaseMs = res.phases.map(p => p.name -> p.millis).toMap
      put("core.construct_ms", phaseMs("graph construction"))
      put("core.expand_ms", phaseMs("graph expansion"))
      put("core.reduce_ms", phaseMs("graph reduction"))
      put("core.find_ms", phaseMs("plan finder"))
      put("core.find_completed", if (res.completed) 1 else 0)
      put("core.plan_score", res.score)
      put("exec.compile_ms", tracer.totalMs("exec.compile"))
      put("exec.segments", cw.distinctSegments)
      if (!untracedSetupS.isNaN)
        put("trace.overhead_setup_ms", tracer.totalMs("setup") - untracedSetupS * 1000)
      tracer.span("core.structure")(structure().foreach { case (n, v) => put(n, v) })

      quiesce()
      val m0  = probe.mark()
      val gc1 = Tracer.gcMs
      b.checked("traced batch run") {
        collectCounts(tracer.span("exec.run")(OnlineExecutors.run(b.spark, b.in.events, cw)).counts)
      }(b.sameAsReference)
      put("jvm.gc_ms", setupGcMs + Tracer.gcMs - gc1)
      if (!untracedRunS.isNaN)
        put("trace.overhead_run_ms", tracer.totalMs("exec.run") - untracedRunS * 1000)
      val tasks       = probe.between(m0, probe.mark())
      val engineStage = tasks.filter(_.engine).map(_.stageId).toSet
      val engineTasks = tasks.filter(t => engineStage(t.stageId))
      put("exec.engine_stage_tasks", engineTasks.size)
      put("exec.engine_task_ms_max", engineTasks.map(_.runMs).maxOption.getOrElse(0L).toDouble)
      put("exec.shuffle_bytes", tasks.map(_.shuffleWriteBytes).sum.toDouble)

      kernel(cw).foreach(_.foreach { case (n, v) => put(n, v) })

      quiesce()
      b.checked("spark floor run")(tracer.span("exec.spark_floor")(floorRun()))(n =>
        if (n == b.spec.events) None else Some(s"floor run saw $n of ${b.spec.events} events"))
      put("exec.spark_floor_ms", tracer.totalMs("exec.spark_floor"))

      quiesce()
      b.checked("traced stream pass") {
        tracer.span("exec.stream")(
          StructuredSharon.run(b.spark, b.in.timeOrdered, cw, Spec.batchSeconds))
      } { sr => b.sameAsReference(countsOf(sr.emitted)) }.foreach { sr =>
        put("exec.stream_batches", sr.batches.toDouble)
        put("exec.stream_batch_ms", tracer.totalMs("exec.stream") / sr.batches)
        put("exec.stream_work_units", sr.metrics.workUnits.toDouble)
        put("exec.stream_emitted_windows", sr.emitted.size)
        put("exec.stream_emit_lag_batches", emitLag(sr))
      }
      out.result()
    }
  }

  /** Mean micro-batches from the batch holding a window's last second to
    * the batch that emits it, over the windows that close inside the stream.
    */
  private def emitLag(sr: StreamRunResult): Double = {
    val lags = sr.emitted.zip(sr.emissionBatch).collect {
      case (r, batch) if r.windowStart + Spec.window.lengthSec <= b.spec.durationSec =>
        batch - (r.windowStart + Spec.window.lengthSec - 1) / Spec.batchSeconds
    }
    if (lags.isEmpty) 0.0 else lags.sum.toDouble / lags.size
  }

  /** Graph sizes, from the optimizer's phase functions called one by one. */
  private def structure(): Seq[(String, Double)] = {
    val weigh: Expansion.Weigh = (p, qs) => CostModel.bValue(b.in.rates, p, qs)
    val g   = SharonGraph.construct(b.in.rates, SharablePatterns.detect(b.in.workload))
    val ex  = Expansion.expandGraph(g, weigh, Spec.maxOptions)
    val red = Reduction.reduce(ex)
    Seq(
      "core.vertices_expanded" -> ex.size.toDouble,
      "core.edges_expanded"    -> ex.edgeCount.toDouble,
      "core.pruned"            -> red.prunedConflictRidden(ex).size.toDouble,
      "core.greedy_score"      -> Optimizer.greedy(b.in.workload, b.in.rates).score)
  }

  /** Single-threaded engine pass over the pre-sorted key groups, without
    * Spark: one `KeyGroupEngine` per group, as the Spark operator runs it.
    */
  private def kernel(cw: CompiledWorkload): Option[Seq[(String, Double)]] =
    b.checked("kernel pass") {
      val groups = b.in.keyGroups
      val perKey = new Array[EngineMetrics](groups.size)
      val rows   = Vector.newBuilder[QueryWindowCount]
      tracer.span("exec.kernel") {
        groups.indices.foreach { i =>
          perKey(i) = new EngineMetrics
          val eng = tracer.span("exec.engine_init")(new KeyGroupEngine(cw, perKey(i)))
          rows ++= tracer.span("exec.engine_run")(eng.run(groups(i).iterator).toVector)
        }
      }
      (perKey.toVector, countsOf(rows.result()))
    } { case (_, c) => b.sameAsReference(c) }.map { case (perKey, _) =>
      val initMs   = tracer.totalMs("exec.engine_init")
      val kernelMs = initMs + tracer.totalMs("exec.engine_run")
      val work     = perKey.map(_.workUnits)
      Seq(
        "exec.kernel_ms"               -> kernelMs,
        "exec.kernel_ns_per_event"     -> kernelMs * 1e6 / perKey.map(_.events).sum,
        "exec.kernel_ns_per_work_unit" -> kernelMs * 1e6 / work.sum,
        "exec.engine_init_ms"          -> initMs,
        "exec.count_updates"           -> perKey.map(_.countUpdates).sum.toDouble,
        "exec.comb_mults"              -> perKey.map(_.combMults).sum.toDouble,
        "exec.work_vs_aseq"            -> work.sum.toDouble / b.referenceWork,
        "exec.key_work_max_over_mean"  -> work.max / (work.sum.toDouble / work.size),
        "exec.key_peak_max"            -> perKey.map(_.peakStateUnits).max.toDouble,
        "exec.key_peak_sum"            -> perKey.map(_.peakStateUnits).sum.toDouble)
    }

  /** The batch operator's shape with a trivial closure: the Spark floor
    * under `OnlineExecutors.run`. Returns the number of events counted.
    */
  private def floorRun(): Long = {
    val counts = b.in.events
      .groupByKey(_.key)
      .flatMapSortedGroups($"time", $"etype") { (_: Long, it: Iterator[Event]) =>
        Iterator(QueryWindowCount(0, 0L, it.size.toLong))
      }
      .groupBy($"queryId".as("query_id"), $"windowStart".as("window_start"))
      .agg(sum($"count").as("cnt"))
      .cache()
    try counts.collect().map(_.getLong(2)).sum finally counts.unpersist()
  }
}

object TracedPass {
  val Rounds = 2

  /** Per-layer metrics of a traced run with their units, by layer. */
  val Layers: Vector[(String, Vector[(String, String)])] = Vector(
    "core" -> Vector(
      "core.construct_ms" -> "ms", "core.expand_ms" -> "ms", "core.reduce_ms" -> "ms",
      "core.find_ms" -> "ms", "core.vertices_expanded" -> "count",
      "core.edges_expanded" -> "count", "core.pruned" -> "count",
      "core.find_completed" -> "bool", "core.plan_score" -> "score",
      "core.greedy_score" -> "score"),
    "exec.compile" -> Vector("exec.compile_ms" -> "ms", "exec.segments" -> "count"),
    "exec.kernel" -> Vector(
      "exec.kernel_ms" -> "ms", "exec.kernel_ns_per_event" -> "ns",
      "exec.kernel_ns_per_work_unit" -> "ns", "exec.engine_init_ms" -> "ms",
      "exec.count_updates" -> "count", "exec.comb_mults" -> "count",
      "exec.work_vs_aseq" -> "ratio", "exec.key_work_max_over_mean" -> "ratio",
      "exec.key_peak_max" -> "units", "exec.key_peak_sum" -> "units"),
    "exec.spark" -> Vector(
      "exec.engine_stage_tasks" -> "count", "exec.engine_task_ms_max" -> "ms",
      "exec.shuffle_bytes" -> "bytes", "exec.spark_floor_ms" -> "ms", "jvm.gc_ms" -> "ms"),
    "exec.stream" -> Vector(
      "exec.stream_batches" -> "count", "exec.stream_batch_ms" -> "ms",
      "exec.stream_work_units" -> "count", "exec.stream_emitted_windows" -> "count",
      "exec.stream_emit_lag_batches" -> "batches"),
    "trace" -> Vector("trace.overhead_setup_ms" -> "ms", "trace.overhead_run_ms" -> "ms"))
}
