package repro.exec

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, StageInfo}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.MapGroupsExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{Oracle, OracleSql, SparkSpec}
import repro.core.{Optimizer, SharablePatterns, SharonGraph}
import repro.core.Model._
import repro.workload.{StreamGen, WorkloadGen}

/** Spark executor integration tests: all four executors (A-Seq, Sharon,
  * Flink-like, SPASS-like) checked against the DuckDB brute-force oracle
  * and against each other on the paper's traffic workload (§8.2 setting,
  * scaled to oracle-tractable streams).
  */
class SparkExecutorsSpec extends SparkSpec with AdaptiveSparkPlanHelper {
  import spark.implicits._

  // Scaled-down paper setting: same query shapes, smaller window.
  private val win      = WindowSpec(120, 30)
  private val workload = WorkloadGen.traffic(win)
  private val typeIds  = CompiledPlan.typeDictionary(workload)
  private val nTypes   = typeIds.size
  private val duration = 480L
  private val nEvents  = 240L

  // Events over the workload's alphabet, renamed to dictionary codes.
  private lazy val events =
    StreamGen.uniform(spark, nEvents, duration, nTypes, numKeys = 4, seed = 3)
      .cache()
  private lazy val eventsDf: DataFrame = events.toDF()
  private lazy val windowsDf: DataFrame =
    OracleSql.windowStarts(duration, win).toDF("ws")

  private lazy val rates = StreamGen.uniformRates(nEvents, duration, nTypes)
  private lazy val realRates = Rates(typeIds.map { case (name, _) =>
    name -> nEvents.toDouble / duration / nTypes
  })
  private lazy val sharonPlan = {
    // Optimize over the workload's own alphabet.
    Optimizer.sharon(workload, realRates).plan
  }

  private def oracleCheck(df: DataFrame): Unit =
    Oracle.assertEquivalent(
      df,
      OracleSql.workloadSql(workload, typeIds),
      "events" -> eventsDf, "windows" -> windowsDf)

  private def asMap(df: DataFrame): Map[(Int, Long), Long] =
    df.collect().map(r => (r.getInt(0), r.getLong(1)) -> r.getLong(2)).toMap

  test("A-Seq executor matches the DuckDB oracle on the traffic workload") {
    val res = OnlineExecutors.runASeq(spark, events, workload, typeIds)
    assert(res.metrics.events > 0)
    oracleCheck(res.counts)
  }

  test("Sharon executor matches the DuckDB oracle under the optimal plan") {
    assert(sharonPlan.nonEmpty, "expected sharing opportunities in the traffic workload")
    val res = OnlineExecutors.runSharon(spark, events, workload, sharonPlan, typeIds)
    oracleCheck(res.counts)
  }

  test("Flink-like two-step executor matches the DuckDB oracle") {
    val res = TwoStepExecutors.runFlinkLike(spark, eventsDf, workload, typeIds)
    assert(res.matchesConstructed > 0)
    oracleCheck(res.counts)
  }

  test("SPASS-like two-step executor matches the DuckDB oracle") {
    val res = TwoStepExecutors.runSpassLike(spark, eventsDf, workload, sharonPlan, typeIds)
    oracleCheck(res.counts)
  }

  test("all four executors agree with each other") {
    val aseq   = asMap(OnlineExecutors.runASeq(spark, events, workload, typeIds).counts)
    val sharon = asMap(OnlineExecutors.runSharon(spark, events, workload, sharonPlan, typeIds).counts)
    val flink  = asMap(TwoStepExecutors.runFlinkLike(spark, eventsDf, workload, typeIds).counts)
    val spass  = asMap(TwoStepExecutors.runSpassLike(spark, eventsDf, workload, sharonPlan, typeIds).counts)
    assert(sharon == aseq)
    assert(flink == aseq)
    assert(spass == aseq)
  }

  test("SPASS-like counts equal the online engine's with two shared segments in one query") {
    // q0 = [A] [B,C] [D,E]: the shared (B,C) relation is joined between a
    // private prefix and the shared (D,E) relation.
    val ids  = Map[EventType, Int]("A" -> 0, "B" -> 1, "C" -> 2, "D" -> 3, "E" -> 4)
    val w    = Workload(WindowSpec(12, 4),
      Seq(Pattern("A", "B", "C", "D", "E"), Pattern("B", "C"), Pattern("D", "E")))
    val plan = Seq(EngineFixtures.candidate(w, Pattern("B", "C"), Set(0, 1)),
      EngineFixtures.candidate(w, Pattern("D", "E"), Set(0, 2)))
    assert(CompiledPlan.compile(w, plan, ids).queries(0).segments.map(_.shared) ==
      Vector(false, true, true))
    val ev     = EngineFixtures.randomEvents(1003L, 400, 60, 5, 2).toDS().cache()
    val online = asMap(OnlineExecutors.runSharon(spark, ev, w, plan, ids).counts)
    val spass  = asMap(TwoStepExecutors.runSpassLike(spark, ev.toDF(), w, plan, ids).counts)
    assert(spass == online)
    assert(online.keys.exists(_._1 == 0), "q0 never matched")
  }

  test("Sharon under the greedy plan also matches A-Seq (plan changes cost, not results)") {
    val greedyPlan = Optimizer.greedy(workload, realRates).plan
    val g   = asMap(OnlineExecutors.runSharon(spark, events, workload, greedyPlan, typeIds).counts)
    val a   = asMap(OnlineExecutors.runASeq(spark, events, workload, typeIds).counts)
    assert(g == a)
  }

  test("sharing reduces engine work on the traffic workload") {
    val aseq   = OnlineExecutors.runASeq(spark, events, workload, typeIds)
    val sharon = OnlineExecutors.runSharon(spark, events, workload, sharonPlan, typeIds)
    assert(sharon.metrics.countUpdates < aseq.metrics.countUpdates)
  }

  test("purchase workload: online executors match the oracle") {
    val pw  = WorkloadGen.purchases(WindowSpec(120, 30))
    val ids = CompiledPlan.typeDictionary(pw)
    val ev  = StreamGen.uniform(spark, 200, duration, ids.size, numKeys = 3, seed = 5).cache()
    val r   = Rates(ids.map { case (n, _) => n -> 200.0 / duration / ids.size })
    val plan = Optimizer.sharon(pw, r).plan
    val aseq   = OnlineExecutors.runASeq(spark, ev, pw, ids)
    val sharon = OnlineExecutors.runSharon(spark, ev, pw, plan, ids)
    Oracle.assertEquivalent(aseq.counts, OracleSql.workloadSql(pw, ids),
      "events" -> ev.toDF(), "windows" -> windowsDf)
    assert(asMap(aseq.counts) == asMap(sharon.counts))
  }

  test("parametric workload at larger key counts: Sharon == A-Seq") {
    val w    = WorkloadGen.generate(numQueries = 8, patternLen = 4, numTypes = 10,
      numBackbones = 2, window = WindowSpec(60, 20), seed = 9)
    val ids  = StreamGen.typeIds(10)
    val ev   = StreamGen.uniform(spark, 500, 300, 10, numKeys = 16, seed = 11).cache()
    val r    = StreamGen.uniformRates(500, 300, 10)
    val plan = Optimizer.sharon(w, r).plan
    val a = asMap(OnlineExecutors.runASeq(spark, ev, w, ids).counts)
    val s = asMap(OnlineExecutors.runSharon(spark, ev, w, plan, ids).counts)
    assert(a == s)
    assert(a.nonEmpty)
  }

  test("engine stage: one task per core behind a single key-hash exchange") {
    val stages = new ConcurrentLinkedQueue[StageInfo]
    val listener = new SparkListener {
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.add(e.stageInfo)
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      val res = OnlineExecutors.runASeq(spark, events, workload, typeIds)
      // The engine stage is the one whose tasks fed this run's accumulator,
      // whose driver-side value is the returned metrics object.
      def engineStages = stages.asScala.toList.filter(_.accumulables.values.exists(
        _.value.exists { case m: EngineMetrics => m eq res.metrics; case _ => false }))
      eventually(timeout(30.seconds)) { assert(engineStages.nonEmpty) }
      assert(engineStages.map(_.numTasks) == List(spark.sparkContext.defaultParallelism))

      val executed = res.counts.queryExecution.executedPlan
      val plan = collectFirst(executed) { case s: InMemoryTableScanExec => s.relation.cachedPlan }
        .getOrElse(fail(s"counts are not cached:\n${executed.treeString}"))
      val engineOp = collectFirst(plan) { case m: MapGroupsExec => m }
      assert(engineOp.nonEmpty, plan.treeString)
      val exchanges = collect(engineOp.get.child) { case x: ShuffleExchangeLike => x }.size
      assert(exchanges == 1, plan.treeString)
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  test("engine metrics and counts equal one KeyGroupEngine per sorted key group") {
    val ev     = StreamGen.uniform(spark, 600, duration, nTypes, numKeys = 37, seed = 13).cache()
    val groups = ev.collect().toSeq.groupBy(_.key).values.toSeq
    assert(groups.size > spark.sparkContext.defaultParallelism)
    val plans = Seq(
      "A-Seq"  -> CompiledPlan.nonShared(workload, typeIds),
      "Sharon" -> CompiledPlan.compile(workload, sharonPlan, typeIds))
    for ((name, cw) <- plans) withClue(name) {
      val expected = new EngineMetrics
      val perKey = groups.map { g =>
        val (counts, m) = EngineFixtures.runEngine(cw, g)
        expected.merge(m)
        counts
      }
      val counts = perKey.flatten.groupMapReduce(_._1)(_._2)(_ + _)
      val res    = OnlineExecutors.run(spark, ev, cw)
      def meters(m: EngineMetrics) = (m.events, m.countUpdates, m.combMults, m.peakStateUnits)
      assert(meters(res.metrics) == meters(expected))
      assert(asMap(res.counts) == counts)
      assert(counts.values.sum > 0)
    }
  }
}
