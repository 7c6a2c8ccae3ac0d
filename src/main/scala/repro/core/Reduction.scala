package repro.core

/** Sharon graph reduction (paper §5, Algorithm 2).
  *
  * Two candidate classes are removed from the graph without losing
  * optimality:
  *
  *  - *conflict-free* candidates (degree 0) belong to every optimal plan
  *    (Definition 14) — they are collected into `conflictFree`;
  *  - *conflict-ridden* candidates, whose best imaginable plan score
  *    `Score_max(v)` (Definition 12) is below GWMIN's guaranteed weight
  *    (Eq 10, Definition 13), cannot be in an optimal plan.
  *
  * Deviation from the paper's pseudo-code (documented in DESIGN.md): the
  * guarantee is recomputed on the *current* residual graph at every sweep
  * instead of fixing the original graph's value. The original variant can
  * over-prune once conflict-free weight has been moved out of the graph
  * (both sides of inequality 12 must refer to the same residual problem);
  * on the paper's running example both variants coincide (tested).
  */
object Reduction {

  final case class Result(reduced: SharonGraph, conflictFree: Vector[Candidate]) {
    def prunedConflictRidden(original: SharonGraph): Vector[Candidate] = {
      val kept = (reduced.vertices ++ conflictFree).map(_.sortKey).toSet
      original.vertices.filterNot(c => kept.contains(c.sortKey))
    }
  }

  /** Algorithm 2 over the residual graph kept in arrays: alive flags,
    * degrees and each vertex's summed neighbour weight. Then
    * `Score_max(i) = total − neighbourWeight(i)` (Definition 12) costs
    * O(1), a removal updates only the removed vertex's neighbours, and the
    * reduced graph is induced once at the end. Each sweep moves out all
    * conflict-free vertices if there are any; otherwise it prunes the
    * first vertex in canonical order whose `Score_max` is below the
    * guarantee, both taken on the residual graph.
    */
  def reduce(graph: SharonGraph): Result = {
    val n         = graph.size
    val weight    = graph.vertices.iterator.map(_.weight).toArray
    val alive     = Array.fill(n)(true)
    val degree    = Array.tabulate(n)(graph.degree)
    val nbrWeight = Array.tabulate(n)(i => graph.adj(i).iterator.map(weight(_)).sum)
    var left      = n
    def remove(v: Int): Unit = {
      alive(v) = false
      left -= 1
      for (u <- graph.adj(v) if alive(u)) { degree(u) -= 1; nbrWeight(u) -= weight(v) }
    }
    val conflictFree = Vector.newBuilder[Candidate]
    var changed      = true
    while (changed && left > 0) {
      changed = false
      val free = (0 until n).filter(i => alive(i) && degree(i) == 0)
      if (free.nonEmpty) {
        free.foreach { i => conflictFree += graph.vertices(i); remove(i) }
        changed = true
      } else {
        // Prune one conflict-ridden candidate per sweep: each removal
        // changes degrees, hence Score_max and the guarantee (Eq 10).
        var total, guarantee = 0.0
        for (i <- 0 until n if alive(i)) {
          total += weight(i)
          guarantee += weight(i) / (degree(i) + 1)
        }
        (0 until n).find(i => alive(i) && total - nbrWeight(i) < guarantee) match {
          case Some(i) => remove(i); changed = true
          case None    => ()
        }
      }
    }
    Result(graph.inducedOn((0 until n).filter(alive)), conflictFree.result())
  }
}
