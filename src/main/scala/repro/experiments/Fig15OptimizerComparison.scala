package repro.experiments

import repro.core.Optimizer
import repro.core.Model._
import repro.workload.{StreamGen, WorkloadGen}
import Harness._

/** Figure 15 reproduction: the three optimizers — Greedy (GO), Exhaustive
  * (EO), Sharon (SO) — varying the number of queries; per-phase latency
  * and memory of the optimization itself (no stream execution).
  *
  * Paper findings to reproduce in shape: EO fails to terminate beyond 20
  * queries and is orders of magnitude above GO at 20; SO completes
  * everywhere, costing orders of magnitude more than GO but orders less
  * than EO; most of GO's time is graph construction at high query counts.
  * E-commerce-like workloads (alphabet 50).
  */
object Fig15OptimizerComparison {

  final case class Params(
      numQueries: Seq[Int] = Seq(10, 20, 30, 50, 70),
      patternLen: Int = 8,
      numTypes: Int = 50,
      numBackbones: Int = 3,
      window: WindowSpec = WindowSpec(1200, 60),
      // Total stream rate in events per window (~3k ev/s over a 1200 s
      // window), split uniformly over the items — the per-window rate
      // units of the cost model (StreamGen.perWindowRates).
      totalEventsPerWindow: Double = 3000.0 * 1200,
      maxOptions: Int = 64,
      eoDeadlineMs: Long = 20000,
      eoMaxPlans: Long = 1L << 24,
      soMaxLevelWidth: Long = 100000,
      seed: Long = 29)

  /** Of `runs` runs of one optimizer, the run with the median total
    * time: a single run of a few milliseconds is at the mercy of JIT and
    * GC pauses.
    */
  private def median(optimize: => Optimizer.Result, runs: Int = 5): Optimizer.Result =
    Seq.fill(runs)(optimize).sortBy(_.totalMillis).apply(runs / 2)

  def run(p: Params = Params()): ExperimentTable = {
    val rates = Rates((0 until p.numTypes)
      .map(i => StreamGen.typeName(i) -> p.totalEventsPerWindow / p.numTypes).toMap)
    // JIT warm-up on a small workload so the first measured point does
    // not pay classloading/compilation.
    locally {
      val w0 = WorkloadGen.generate(6, p.patternLen, p.numTypes, p.numBackbones,
        p.window, p.seed + 1)
      Optimizer.greedy(w0, rates)
      Optimizer.sharon(w0, rates, maxOptions = 8, maxLevelWidth = 1000)
      Optimizer.exhaustive(w0, rates, maxOptions = 8, maxPlans = 1L << 16,
        deadlineMs = 2000)
    }
    val rows = p.numQueries.map { nq =>
      val w = WorkloadGen.generate(nq, p.patternLen, p.numTypes, p.numBackbones,
        p.window, p.seed)
      val go = median(Optimizer.greedy(w, rates))
      val so = median(Optimizer.sharon(w, rates,
        maxOptions = p.maxOptions, maxLevelWidth = p.soMaxLevelWidth))
      val eo = median(Optimizer.exhaustive(w, rates,
        maxOptions = p.maxOptions, maxPlans = p.eoMaxPlans, deadlineMs = p.eoDeadlineMs))
      def phased(r: Optimizer.Result): String =
        r.phases.map(ph => f"${ph.name.split(" ").last}:${ph.millis}%.0f").mkString("+")
      Seq(nq.toString,
        ms(go.totalMillis), ms(so.totalMillis),
        if (eo.completed) ms(eo.totalMillis) else "DNF",
        go.peakMemUnits.toString, so.peakMemUnits.toString,
        if (eo.completed) eo.peakMemUnits.toString else "DNF",
        f"${go.score}%.0f", f"${so.score}%.0f",
        if (eo.completed) f"${eo.score}%.0f" else "DNF",
        if (so.completed) "yes" else "no",
        phased(so))
    }
    ExperimentTable(
      "Fig 15: optimizer latency/memory, GO vs SO vs EO (EC-like workload)", header, rows)
  }

  /** `SO completed` is "no" when the plan finder hit `soMaxLevelWidth`
    * and SO returned its §6 fallback plan.
    */
  val header: Seq[String] = Seq("queries", "GO ms", "SO ms", "EO ms",
    "GO mem", "SO mem", "EO mem", "GO score", "SO score", "EO score",
    "SO completed", "SO phases (ms)")

  private def eoCompleted(t: ExperimentTable): Seq[Map[String, String]] =
    t.records.filter(_("EO ms") != "DNF")

  /** The paper's Fig 15 shape: GO is cheapest, SO never scores below GO
    * and matches EO wherever EO finishes, and EO blows up with the
    * workload.
    */
  val checks: Seq[Check] = Seq(
    onePerPoint("queries", Params().numQueries),
    Check("GO is always the fastest optimizer") { t =>
      t.records.filterNot(r => r("GO ms").toDouble <= r("SO ms").toDouble)
        .map(r => s"GO ${r("GO ms")} ms exceeds SO ${r("SO ms")} ms at ${r("queries")} queries")
    },
    Check("SO's plan score is never below GO's") { t =>
      t.records.filterNot(r => r("SO score").toDouble + 1e-6 >= r("GO score").toDouble)
        .map(r => s"SO ${r("SO score")} < GO ${r("GO score")} at ${r("queries")} queries")
    },
    Check("EO's score equals SO's where EO completes") { t =>
      eoCompleted(t).filterNot(r => math.abs(r("SO score").toDouble - r("EO score").toDouble) < 1e-6)
        .map(r => s"SO ${r("SO score")} != EO ${r("EO score")} at ${r("queries")} queries")
    },
    Check("EO does not finish beyond small workloads") { t =>
      expect(t.records.exists(_("EO ms") == "DNF"), "EO completed at every point (paper: DNF > 20 queries)")
    },
    Check("EO is at least as slow as GO where EO completes") { t =>
      eoCompleted(t).filterNot(r => r("EO ms").toDouble >= r("GO ms").toDouble)
        .map(r => s"EO ${r("EO ms")} ms is below GO ${r("GO ms")} ms at ${r("queries")} queries")
    })
}
