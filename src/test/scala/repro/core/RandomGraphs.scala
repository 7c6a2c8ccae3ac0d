package repro.core

import repro.core.Model._
import repro.workload.{StreamGen, WorkloadGen}

/** Deterministic "random" Sharon graphs for property-style tests: a
  * synthetic workload of overlapping patterns per seed, turned into a
  * graph by Algorithm 1. Properties iterate explicit seed ranges, so
  * every run checks the same cases.
  */
object RandomGraphs {

  def workload(seed: Long, numQueries: Int = 8, patternLen: Int = 4,
               numTypes: Int = 10, numBackbones: Int = 2): Workload =
    WorkloadGen.generate(numQueries, patternLen, numTypes, numBackbones,
      WindowSpec(600, 60), seed)

  def rates(numTypes: Int = 10, rate: Double = 1.0): Rates =
    Rates((0 until numTypes).map(i => StreamGen.typeName(i) -> rate).toMap)

  def graph(seed: Long, numQueries: Int = 8, patternLen: Int = 4,
            numTypes: Int = 10, numBackbones: Int = 2): SharonGraph =
    SharonGraph.construct(rates(numTypes),
      SharablePatterns.detect(workload(seed, numQueries, patternLen, numTypes, numBackbones)))

  /** Brute-force MWIS score — the ground truth for optimality checks. */
  def bruteForceOpt(g: SharonGraph): Double = {
    require(g.size <= 20, s"brute force capped at 20 vertices, got ${g.size}")
    var best = 0.0
    for (mask <- 0 until (1 << g.size)) {
      val idxs = (0 until g.size).filter(i => (mask & (1 << i)) != 0)
      val valid = idxs.indices.forall(a =>
        (a + 1 until idxs.size).forall(b => !g.hasEdge(idxs(a), idxs(b))))
      if (valid) best = math.max(best, idxs.map(g.vertices(_).weight).sum)
    }
    best
  }
}
