package repro.core

import Model._

/** The three optimizer pipelines compared in the paper's §8.3 (Fig 15),
  * each instrumented per phase:
  *
  *  - **Greedy optimizer (GO)**: Sharon graph construction (Alg 1, incl.
  *    sharable-pattern detection), then the GWMIN plan finder (Alg 8).
  *  - **Exhaustive optimizer (EO)**: graph construction, graph expansion
  *    (Algs 5–6), then exhaustive traversal of all `2^|V|` plans.
  *  - **Sharon optimizer (SO)**: graph construction, graph expansion,
  *    graph reduction (Alg 2), then the sharing plan finder (Algs 3–4).
  *
  * All three return a sharing plan — a set of non-conflicting candidates
  * (Definition 7) — plus its score (Definition 8).
  */
object Optimizer {

  /** One pipeline phase: wall time and a deterministic memory proxy
    * (stored units: vertices + query refs + edges, or plans held).
    */
  final case class Phase(name: String, millis: Double, memUnits: Long)

  final case class Result(name: String,
                          plan: Vector[Candidate],
                          score: Double,
                          phases: Vector[Phase],
                          completed: Boolean) {
    def totalMillis: Double = phases.map(_.millis).sum
    def peakMemUnits: Long  = if (phases.isEmpty) 0L else phases.map(_.memUnits).max
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  private def graphMem(g: SharonGraph): Long =
    g.vertices.map(_.queries.size.toLong + 1).sum + 2L * g.edgeCount

  /** Validity check (Definition 7) — used by tests on every plan. */
  def isValid(plan: Seq[Candidate]): Boolean =
    plan.indices.forall(i =>
      (i + 1 until plan.size).forall(j => !plan(i).conflictsWith(plan(j))))

  private def weigher(rates: Rates): Expansion.Weigh =
    (p, qs) => CostModel.bValue(rates, p, qs)

  private def buildGraph(workload: Workload, rates: Rates): (SharonGraph, Phase) = {
    val (g, ms) = timed {
      SharonGraph.construct(rates, SharablePatterns.detect(workload))
    }
    (g, Phase("graph construction", ms, graphMem(g)))
  }

  /** Greedy optimizer: construction + GWMIN (no expansion, §8.3). */
  def greedy(workload: Workload, rates: Rates): Result = {
    val (g, constructPhase) = buildGraph(workload, rates)
    val ((plan, score), ms) = timed(Gwmin.plan(g))
    Result("GO", plan, score,
      Vector(constructPhase, Phase("GWMIN", ms, g.size.toLong)), completed = true)
  }

  /** Exhaustive optimizer: construction + expansion + full enumeration.
    * `completed = false` (empty plan) when the enumeration exceeds its
    * budget — the paper's EO does not terminate beyond 20 queries.
    */
  def exhaustive(workload: Workload, rates: Rates,
                 maxOptions: Int = 4096,
                 maxPlans: Long = 1L << 26,
                 deadlineMs: Long = 120000L): Result = {
    val (g, constructPhase) = buildGraph(workload, rates)
    val (expanded, expandMs) = timed(Expansion.expandGraph(g, weigher(rates), maxOptions))
    val expandPhase = Phase("graph expansion", expandMs, graphMem(expanded))
    val (res, searchMs) = timed(PlanFinder.exhaustive(expanded, maxPlans, deadlineMs))
    res match {
      case Some(r) =>
        Result("EO", r.plan, r.score,
          Vector(constructPhase, expandPhase,
            Phase("exhaustive search", searchMs, r.metrics.plansVisited)),
          completed = true)
      case None =>
        Result("EO", Vector.empty, 0.0,
          Vector(constructPhase, expandPhase,
            Phase("exhaustive search (DNF)", searchMs, maxPlans)),
          completed = false)
    }
  }

  /** The Sharon optimizer: construction + expansion + reduction + plan
    * finder; returns an optimal plan over the expanded graph (§§4–7).
    *
    * `maxLevelWidth` is the anytime cutoff of the finder (§6 fallback):
    * when hit, the better of the best-found plan and the GWMIN plan on
    * the reduced graph is returned with `completed = false`.
    */
  def sharon(workload: Workload, rates: Rates,
             maxOptions: Int = 4096,
             maxLevelWidth: Long = Long.MaxValue): Result = {
    val (g, constructPhase) = buildGraph(workload, rates)
    val (expanded, expandMs) = timed(Expansion.expandGraph(g, weigher(rates), maxOptions))
    val expandPhase = Phase("graph expansion", expandMs, graphMem(expanded))
    val (red, reduceMs) = timed(Reduction.reduce(expanded))
    val reducePhase = Phase("graph reduction", reduceMs, graphMem(red.reduced))
    // The finder runs per connected component: conflicts never cross
    // components and scores are additive (Definition 8), so the union of
    // per-component optima is the global optimum — this keeps the valid
    // space tractable on large workloads without losing optimality.
    val ((planCore, scoreCore, peakLevel, allComplete), findMs) = timed {
      var plan     = Vector.empty[Candidate]
      var score    = 0.0
      var peak     = 0L
      var complete = true
      for (comp <- red.reduced.components) {
        val sub   = red.reduced.inducedOn(comp)
        val found = PlanFinder.find(sub, maxLevelWidth)
        peak = math.max(peak, found.metrics.peakLevelSize)
        val (p, s) =
          if (found.complete) (found.plan, found.score)
          else {
            // §6 fallback: an incomplete search still yields a valid
            // plan; take the better of best-found and greedy.
            complete = false
            val (gp, gs) = Gwmin.plan(sub)
            if (gs > found.score) (gp, gs) else (found.plan, found.score)
          }
        plan ++= p
        score += s
      }
      (plan, score, peak, complete)
    }
    var plan  = planCore ++ red.conflictFree
    var score = scoreCore + red.conflictFree.map(_.weight).sum
    if (!allComplete) {
      // When any component search was cut off, guarantee SO >= GO by
      // comparing against plain GWMIN on the unexpanded graph (the
      // anytime fallback of §6 must never underperform the greedy
      // optimizer it would replace).
      val (gp, gs) = Gwmin.plan(g)
      if (gs > score) { plan = gp; score = gs }
    }
    Result("SO", plan, score,
      Vector(constructPhase, expandPhase, reducePhase,
        Phase("plan finder", findMs, peakLevel + red.conflictFree.size)),
      completed = allComplete)
  }
}
