package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.Optimizer
import repro.core.Model._
import repro.exec.{CompiledPlan, OnlineExecutors}
import repro.workload.{StreamGen, WorkloadGen}
import Harness._

/** Figure 16 reproduction: executor latency and memory when guided by a
  * greedily chosen plan (GWMIN) versus an optimal plan (Sharon
  * optimizer), varying the number of queries; taxi-like stream.
  *
  * Paper finding: at 180 queries the optimal plan halves latency and
  * cuts memory 3-fold versus the greedy plan; the gap widens with the
  * workload size. The workload replicates the paper's own traffic
  * example (q1–q7, Fig 1) into independent clusters, with hot trunk /
  * rare side street rates under which the Fig 4 conflict structure is
  * live and GWMIN's ratio heuristic picks the Example 12 trap (the hub
  * candidate p1) in every cluster. The stream is type-weighted to match
  * the rate profile.
  */
object Fig16PlanQuality {

  final case class Params(
      numClusters: Seq[Int] = Seq(3, 9, 17, 26), // ×7 queries: 21..182
      numKeys: Int = 64,
      window: WindowSpec = WindowSpec(60, 6),
      maxOptions: Int = 64,
      soMaxLevelWidth: Long = 50000,
      seed: Long = 31)

  /** The `numClusters`-cluster workload and its cost-model rates. */
  def workload(numClusters: Int, p: Params): (Workload, Rates) = {
    val w       = WorkloadGen.trafficClusters(numClusters, p.window)
    // Cost-model rates are per (window, key): the executor's state is
    // partitioned by the [vehicle] predicate, so per-key magnitudes
    // are what balance the quadratic vs cubic terms of Eqs 2–5.
    val profile = WorkloadGen.trafficClusterRates
    (w, Rates(CompiledPlan.typeDictionary(w).keys.map { t =>
      t -> profile(t.dropWhile(_ != '_').drop(1))
    }.toMap))
  }

  /** The greedy (GO) and the optimal (SO) plan of `w` under `rates`. */
  def plans(w: Workload, rates: Rates, p: Params): (Optimizer.Result, Optimizer.Result) =
    (Optimizer.greedy(w, rates),
      Optimizer.sharon(w, rates, maxOptions = p.maxOptions, maxLevelWidth = p.soMaxLevelWidth))

  def run(spark: SparkSession, p: Params = Params()): ExperimentTable = {
    val duration = p.window.lengthSec * 2
    val rows = p.numClusters.map { nc =>
      val (w, rates) = workload(nc, p)
      val typeIds = CompiledPlan.typeDictionary(w)
      val epw     = rates.perType.values.sum * p.numKeys
      val nEvents = (epw * duration / p.window.lengthSec).toLong
      // Weighted stream matching the rate profile (dictionary order).
      val weights = typeIds.toSeq.sortBy(_._2).map { case (t, _) => rates(t) }
        .toIndexedSeq
      val events = StreamGen.weighted(spark, nEvents, duration, weights,
        p.numKeys, p.seed).cache()
      events.count()
      val (greedy, sharon) = plans(w, rates, p)
      val g = OnlineExecutors.run(spark, events, CompiledPlan.compile(w, greedy.plan, typeIds))
      val s = OnlineExecutors.run(spark, events, CompiledPlan.compile(w, sharon.plan, typeIds))
      events.unpersist()
      // Scores in full (round-trip) precision, so the score check compares
      // the optimizer's values rather than rounded ones.
      Seq(w.size.toString, greedy.score.toString, sharon.score.toString) ++
        compared(g.millis, s.millis)(ms) ++
        compared(g.metrics.peakStateUnits, s.metrics.peakStateUnits)(_.toString) ++
        compared(g.metrics.workUnits, s.metrics.workUnits)(_.toString)
    }
    ExperimentTable(
      "Fig 16: executor under greedy vs optimal plan (taxi-like stream)", header, rows)
  }

  val header: Seq[String] = Seq("queries", "GO score", "SO score",
    "greedy ms", "optimal ms", "lat ratio", "greedy mem", "optimal mem", "mem ratio",
    "greedy work", "optimal work", "work ratio")

  private def workRatios(t: ExperimentTable): Seq[Double] =
    t.records.map(_("work ratio").toDouble)

  /** The paper's Fig 16 shape: the optimal plan scores at least the
    * greedy one, and the executor it guides never does more work.
    */
  val checks: Seq[Check] = Seq(
    onePerPoint("queries", Params().numClusters.map(7 * _)),
    Check("the optimal plan's score is never below the greedy plan's") { t =>
      t.records.filterNot(r => r("SO score").toDouble + 1e-6 >= r("GO score").toDouble)
        .map(r => s"SO ${r("SO score")} < GO ${r("GO score")} at ${r("queries")} queries")
    },
    Check("the optimal plan does not add model work") { t =>
      expect(workRatios(t).forall(_ >= 0.95), s"greedy/optimal work ratios ${workRatios(t)} fall below 0.95")
    },
    Check("the optimal plan saves work somewhere in the sweep") { t =>
      expect(workRatios(t).max > 1.0, s"greedy/optimal work ratios ${workRatios(t)} never exceed 1.0")
    })
}
