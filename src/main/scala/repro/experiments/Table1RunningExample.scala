package repro.experiments

import repro.core.{Candidate, CostModel, Optimizer, SharablePatterns, SharonGraph}
import repro.core.Model._
import repro.workload.WorkloadGen
import Harness._

/** The paper's running example end to end: Table 1 (sharing candidates
  * of the traffic workload q1–q7), their Fig 4 sharing conflicts, each
  * candidate's benefit value (Eq 8), and the greedy (GO) and optimal (SO)
  * plans of Examples 10/12. Plans are computed under unit rates and under
  * the hot/rare street profile (`WorkloadGen.trafficClusterRates`), where
  * the greedy plan falls visibly short of the optimal one.
  *
  * One row per candidate; a plan column holds the queries of the plan's
  * option for that pattern (an expanded option may drop queries, §7.1).
  * The last row, `plan score`, holds each plan's score.
  */
object Table1RunningExample {

  val header: Seq[String] = Seq("pattern", "queries", "conflicts",
    "BValue unit", "BValue hot/rare", "GO unit", "SO unit", "GO hot/rare", "SO hot/rare")

  private def ids(qs: Seq[Query]): String = qs.map(q => s"q${q.id}").mkString(",")

  def run(): ExperimentTable = {
    val workload = WorkloadGen.traffic()
    val unit     = Rates(workload.queries.flatMap(_.pattern.types).map(_ -> 1.0).toMap)
    val hotRare  = Rates(WorkloadGen.trafficClusterRates)
    // All seven candidates, beneficial or not: conflicts (Definition 6)
    // do not depend on the weights.
    val fig4 = SharonGraph.fromCandidates(SharablePatterns.detect(workload)
      .map { case (p, qs) => Candidate(p, qs, 1.0) }.toSeq)
    val plans = Seq(unit, hotRare).flatMap(r =>
      Seq(Optimizer.greedy(workload, r), Optimizer.sharon(workload, r)))
    val rows = fig4.vertices.indices.sortBy(fig4.vertices(_).pattern.toString).map { i =>
      val c = fig4.vertices(i)
      Seq(c.pattern.toString, ids(c.queries), fig4.degree(i).toString) ++
        Seq(unit, hotRare).map(r => f"${CostModel.bValue(r, c.pattern, c.queries)}%.1f") ++
        plans.map(_.plan.filter(_.pattern == c.pattern).map(o => ids(o.queries)).mkString(" + "))
    }
    val scores = Seq("plan score", "", "", "", "") ++ plans.map(r => f"${r.score}%.1f")
    ExperimentTable(
      "Table 1 / Fig 4 / Example 12: sharing candidates and plans of the traffic workload",
      header, rows :+ scores)
  }

  /** The paper's Table 1 with Fig 4's conflict degrees. */
  private val paper: Map[String, (String, String)] = Map(
    "(OakSt, MainSt)"          -> ("q1,q2,q3,q4", "5"),
    "(ParkAve, OakSt)"         -> ("q3,q4", "3"),
    "(ParkAve, OakSt, MainSt)" -> ("q3,q4", "4"),
    "(MainSt, WestSt)"         -> ("q2,q4", "3"),
    "(OakSt, MainSt, WestSt)"  -> ("q2,q4", "4"),
    "(MainSt, StateSt)"        -> ("q1,q5", "1"),
    "(ElmSt, ParkAve)"         -> ("q6,q7", "0"))

  val checks: Seq[Check] = Seq(
    Check("Table 1 and Fig 4: the paper's candidates, queries and conflicts") { t =>
      val got = t.records.filter(_("pattern") != "plan score")
        .map(r => r("pattern") -> (r("queries"), r("conflicts"))).toMap
      expect(got == paper, s"candidates $got, expected $paper")
    },
    Check("Example 12: the optimal plan never scores below the greedy one, and beats it under hot/rare rates") { t =>
      val s = t.record("pattern", "plan score")
      def score(col: String): Double = s(col).toDouble
      expect(score("SO unit") >= score("GO unit") && score("SO hot/rare") > score("GO hot/rare"),
        s"plan scores GO/SO: unit ${s("GO unit")}/${s("SO unit")}, hot/rare ${s("GO hot/rare")}/${s("SO hot/rare")}")
    })
}
