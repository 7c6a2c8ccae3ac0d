package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.workload.{StreamGen, WorkloadGen}

/** End-to-end optimizer pipeline tests (paper §8.3: GO, EO, SO). */
class OptimizerSpec extends AnyFunSuite {
  import PaperFixtures._

  // Unit rates keep combination cheap so the traffic workload has
  // beneficial candidates (at high rates the cubic Eq 5 term kills all
  // partial-overlap sharing — tested in CostModelSpec).
  private val rates = Rates(
    workload.queries.flatMap(_.pattern.types).distinct.map(_ -> 1.0).toMap)

  /** The optimal plan score over the unexpanded Sharon graph: Alg 2's
    * reduction, then the plan finder on the reduced graph.
    */
  private def unexpandedOptimum(w: Workload, r: Rates): Double = {
    val red   = Reduction.reduce(SharonGraph.construct(r, SharablePatterns.detect(w)))
    val found = PlanFinder.find(red.reduced)
    assert(found.complete)
    found.score + red.conflictFree.map(_.weight).sum
  }

  test("SO returns a valid plan on the traffic workload") {
    val r = Optimizer.sharon(workload, rates)
    assert(r.completed)
    assert(Optimizer.isValid(r.plan))
    assert(r.score > 0)
  }

  test("SO has the four phases of Fig 15") {
    val r = Optimizer.sharon(workload, rates)
    assert(r.phases.map(_.name) == Vector("graph construction",
      "graph expansion", "graph reduction", "plan finder"))
  }

  test("GO has two phases: construction + GWMIN") {
    val r = Optimizer.greedy(workload, rates)
    assert(r.phases.map(_.name) == Vector("graph construction", "GWMIN"))
    assert(Optimizer.isValid(r.plan))
  }

  test("EO has three phases and agrees with SO on the traffic workload") {
    val eo = Optimizer.exhaustive(workload, rates)
    val so = Optimizer.sharon(workload, rates)
    assert(eo.completed)
    assert(math.abs(eo.score - so.score) < 1e-9)
  }

  test("SO score >= GO score always (optimal vs greedy)") {
    for (seed <- 0L until 20L) {
      val w = RandomGraphs.workload(seed, numQueries = 6, numTypes = 8)
      val r = RandomGraphs.rates(8, rate = 3.0)
      val so = Optimizer.sharon(w, r)
      val go = Optimizer.greedy(w, r)
      assert(so.score >= go.score - 1e-9, s"seed=$seed")
    }
  }

  test("SO without expansion equals brute-force MWIS on the original graph") {
    for (seed <- 0L until 15L) {
      val w = RandomGraphs.workload(seed, numQueries = 5, numTypes = 8)
      val r = RandomGraphs.rates(8, rate = 2.0)
      val g = SharonGraph.construct(r, SharablePatterns.detect(w))
      if (g.size <= 14) {
        assert(math.abs(unexpandedOptimum(w, r) - RandomGraphs.bruteForceOpt(g)) < 1e-9, s"seed=$seed")
      }
    }
  }

  test("SO and EO agree on random workloads (same expanded graph)") {
    for (seed <- 0L until 10L) {
      val w = RandomGraphs.workload(seed, numQueries = 5, numTypes = 8)
      val r = RandomGraphs.rates(8, rate = 2.0)
      val so = Optimizer.sharon(w, r)
      val eo = Optimizer.exhaustive(w, r)
      if (eo.completed)
        assert(math.abs(so.score - eo.score) < 1e-9, s"seed=$seed")
    }
  }

  test("expansion can only help: SO(expand) >= SO(no expand)") {
    for (seed <- 0L until 15L) {
      val w = RandomGraphs.workload(seed, numQueries = 6, numTypes = 8)
      val r = RandomGraphs.rates(8, rate = 3.0)
      assert(Optimizer.sharon(w, r).score >= unexpandedOptimum(w, r) - 1e-9, s"seed=$seed")
    }
  }

  test("plans produced by all three optimizers are valid") {
    for (seed <- 20L until 30L) {
      val w = RandomGraphs.workload(seed, numQueries = 7, numTypes = 10)
      val r = RandomGraphs.rates(10, rate = 2.0)
      assert(Optimizer.isValid(Optimizer.sharon(w, r).plan), s"SO seed=$seed")
      assert(Optimizer.isValid(Optimizer.greedy(w, r).plan), s"GO seed=$seed")
      val eo = Optimizer.exhaustive(w, r)
      if (eo.completed) assert(Optimizer.isValid(eo.plan), s"EO seed=$seed")
    }
  }

  test("workload with no sharable patterns yields the empty (Non-Shared) plan") {
    val w = Workload(WindowSpec(600, 60), Seq(Pattern("A", "B"), Pattern("C", "D")))
    val r = Rates(Map("A" -> 1.0, "B" -> 1.0, "C" -> 1.0, "D" -> 1.0))
    val so = Optimizer.sharon(w, r)
    assert(so.plan.isEmpty && so.score == 0.0)
  }

  test("EO reports DNF on a tight budget while SO completes") {
    val w = RandomGraphs.workload(3L, numQueries = 12, patternLen = 5, numTypes = 10)
    val r = RandomGraphs.rates(10, rate = 3.0)
    val eo = Optimizer.exhaustive(w, r, maxPlans = 64)
    val so = Optimizer.sharon(w, r)
    assert(!eo.completed || so.completed) // SO always completes here
    assert(so.completed)
  }

  test("regression: SO on the shared-wide shape keeps its graph, score and plan") {
    val wl    = WorkloadGen.generate(60, 10, 16, 2, WindowSpec(60, 6), 23)
    val r     = StreamGen.perWindowRates(30000, 16)
    val weigh: Expansion.Weigh = (p, qs) => CostModel.bValue(r, p, qs)
    val ex    = Expansion.expandGraph(
      SharonGraph.construct(r, SharablePatterns.detect(wl)), weigh, maxOptions = 64)
    assert((ex.size, ex.edgeCount) == (1443, 150255))
    assert(Reduction.reduce(ex).prunedConflictRidden(ex).isEmpty)
    val so = Optimizer.sharon(wl, r, maxOptions = 64, maxLevelWidth = 50000L)
    assert(!so.completed)
    assert(so.score == 1578515625.0)
    // sortKeys, with a space for their \u0001 type separator.
    assert(so.plan.map(_.sortKey.replace('\u0001', ' ')) == Vector(
      "T012 T002 T009 T001 T013 T005 T000 T004 T006 T003|20,26,33,38,46,54,58",
      "T009 T001 T013 T005 T000 T004 T006 T003 T015|13,19,24,28,29,30,34,42,47,49",
      "T001 T011 T015 T000 T003 T007 T002 T009 T014 T006|5,12,15,31,39,57",
      "T010 T005 T013 T001 T011 T015 T000 T003 T007 T002|3,16,17,40,51,59",
      "T010 T012 T002 T009 T001 T013 T005 T000 T004|4,7,14,21,27,32,50",
      "T013 T001 T011 T015 T000 T003 T007 T002 T009|1,2,9,36,52",
      "T011 T015 T000 T003 T007 T002 T009 T014 T006 T004|10,25,48",
      "T012 T010 T005 T013 T001 T011 T015 T000 T003 T007|18,22,44,45,55",
      "T001 T013 T005 T000 T004 T006 T003 T015 T008 T011|8,11,35,56",
      "T015 T000 T003 T007 T002 T009 T014 T006 T004 T008|23,37,41,43",
      "T014 T007 T010 T012 T002 T009 T001 T013 T005 T000|0,6,53"))
  }
}
