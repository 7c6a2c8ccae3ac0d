package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.Optimizer
import repro.core.Model._
import repro.exec.{CompiledPlan, OnlineExecutors}
import repro.workload.{StreamGen, WorkloadGen}
import Harness._

/** Figure 14 reproduction: A-Seq versus Sharon under high-rate streams,
  * varying (a/e) events per window, (b/d/f) number of queries, and
  * (c/g/h) pattern length; latency, throughput, and peak memory.
  *
  * Paper setting: 200k–1.2M events/window, 20–120 queries, length 10–30;
  * Sharon wins 5–18× on latency and up to two orders of magnitude on
  * memory. Scaled here: events per window divided by ~10 (container vs
  * the paper's 128 GB server); sweep shapes unchanged. Latency is
  * wall-clock per run; memory is the engines' peak live state entries
  * (×16 B ≈ bytes); throughput is events × queries / second as in §8.1.
  */
object Fig14OnlineApproaches {

  final case class Params(
      eventsPerWindow: Seq[Int] = Seq(10000, 20000, 40000, 60000),
      numQueries: Seq[Int] = Seq(20, 40, 80, 120),
      patternLengths: Seq[Int] = Seq(10, 15, 20, 30),
      defaultEpw: Int = 20000,
      defaultQueries: Int = 20,
      defaultLen: Int = 10,
      numKeys: Int = 64,
      numBackbones: Int = 2,
      window: WindowSpec = WindowSpec(60, 6),
      seed: Long = 23)

  private def row(spark: SparkSession, p: Params,
                  label: String, epw: Int, nq: Int, len: Int): Seq[String] = {
    // A tight alphabet around the pattern length keeps query overlap high
    // (the paper's workloads are "similar to q1–q7": many near-duplicate
    // route slices), which is where sharing pays off.
    val nTypes   = len + 6
    val duration = p.window.lengthSec * 2
    val nEvents  = epw.toLong * duration / p.window.lengthSec
    val workload = WorkloadGen.generate(nq, len, nTypes, p.numBackbones, p.window, p.seed)
    val typeIds  = StreamGen.typeIds(nTypes)
    // Cost-model rates in events/window (dimensionally consistent units
    // for Eq 5 — see StreamGen.perWindowRates).
    val rates    = StreamGen.perWindowRates(epw, nTypes)
    val plan = Optimizer.sharon(workload, rates,
      maxOptions = 64, maxLevelWidth = 50000).plan
    val events = StreamGen.uniform(spark, nEvents, duration, nTypes, p.numKeys, p.seed).cache()
    events.count()
    val a = OnlineExecutors.run(spark, events, CompiledPlan.nonShared(workload, typeIds))
    val s = OnlineExecutors.run(spark, events, CompiledPlan.compile(workload, plan, typeIds))
    events.unpersist()
    def thr(millis: Double): String = f"${nEvents * nq / (millis / 1000)}%.0f"
    Seq(label) ++ compared(a.millis, s.millis)(ms) ++ Seq(thr(a.millis), thr(s.millis)) ++
      compared(a.metrics.workUnits, s.metrics.workUnits)(_.toString) ++
      compared(a.metrics.peakStateUnits, s.metrics.peakStateUnits)(_.toString)
  }

  val header: Seq[String] = Seq("x", "A-Seq ms", "Sharon ms", "speedup",
    "A-Seq ev/s", "Sharon ev/s", "A-Seq work", "Sharon work", "work ratio",
    "A-Seq mem", "Sharon mem", "mem ratio")

  /** The points of the three sweeps, in order: (label, events/window,
    * queries, pattern length). The label's prefix names the sweep.
    */
  private def sweeps(p: Params): Seq[(String, Int, Int, Int)] =
    p.eventsPerWindow.map(e => (s"epw=$e", e, p.defaultQueries, p.defaultLen)) ++
      p.numQueries.map(q => (s"queries=$q", p.defaultEpw, q, p.defaultLen)) ++
      p.patternLengths.map(l => (s"len=$l", p.defaultEpw, p.defaultQueries, l))

  /** One table holding the three sweeps: events per window (a,e), number
    * of queries (b,d,f) and pattern length (c,g,h).
    */
  def run(spark: SparkSession, p: Params = Params()): ExperimentTable =
    ExperimentTable(
      "Fig 14: A-Seq vs Sharon, sweeps of events/window (a,e), queries (b,d,f), pattern length (c,g,h)",
      header,
      sweeps(p).map { case (label, epw, nq, len) => row(spark, p, label, epw, nq, len) })

  private def workRatios(t: ExperimentTable, sweep: String): Seq[Double] =
    t.records.filter(_("x").startsWith(s"$sweep=")).map(_("work ratio").toDouble)

  /** The paper's Fig 14 shape on the deterministic work and memory
    * columns: Sharon never does more work than A-Seq, and its advantage
    * grows with sharing opportunities.
    */
  val checks: Seq[Check] = Seq(
    onePerPoint("x", sweeps(Params()).map(_._1)),
    Check("Sharon never adds model work across the query sweep") { t =>
      expect(workRatios(t, "queries").forall(_ >= 1.0),
        s"work ratios ${workRatios(t, "queries")} fall below 1.0")
    },
    Check("Sharon's work advantage grows with the number of queries") { t =>
      val r = workRatios(t, "queries")
      expect(r.last > r.head, s"work ratio ${r.last} at the most queries is not > ${r.head} at the fewest")
    },
    Check("Sharon never adds model work across the pattern-length sweep") { t =>
      expect(workRatios(t, "len").forall(_ >= 1.0),
        s"work ratios ${workRatios(t, "len")} fall below 1.0")
    },
    Check("Sharon uses less peak memory than A-Seq at 80 queries") { t =>
      val m = t.record("x", "queries=80")("mem ratio").toDouble
      expect(m > 1.0, s"A-Seq/Sharon memory ratio $m is not > 1.0")
    })
}
