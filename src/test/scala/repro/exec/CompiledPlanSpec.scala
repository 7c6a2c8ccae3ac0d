package repro.exec

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.exec.CompiledPlan._
import EngineFixtures.candidate

/** Compilation tests: decomposition of query patterns into shared and
  * private segments under a sharing plan (§3.3 prefix/p/suffix).
  */
class CompiledPlanSpec extends AnyFunSuite {
  private val win = WindowSpec(600, 60)
  private val w = Workload(win, Seq(
    Pattern("A", "B", "C", "D"),  // q0
    Pattern("B", "C", "E"),       // q1
    Pattern("A", "B"),            // q2
  ))
  private val ids = typeDictionary(w)

  /** A distinct segment is shared exactly when several queries read it. */
  private def shared(cw: CompiledWorkload)(s: Int): Boolean = cw.readers(s).size > 1

  test("type dictionary is dense and sorted") {
    assert(ids.values.toSeq.sorted == (0 until ids.size))
    assert(ids.keySet == Set("A", "B", "C", "D", "E"))
  }

  test("non-shared compilation: one private whole-pattern segment per query") {
    val cw = CompiledPlan.nonShared(w, ids)
    assert(cw.querySegments.forall(_.size == 1))
    assert(cw.querySegments.flatten.forall(!shared(cw)(_)))
    assert(cw.distinctSegments == 3)
  }

  test("shared pattern becomes one segment reused across queries") {
    val plan = Seq(candidate(w, Pattern("B", "C"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    val sharedOf = cw.querySegments.map(_.filter(shared(cw)))
    assert(sharedOf(0).size == 1 && sharedOf(0) == sharedOf(1)) // same shared runtime
    assert(sharedOf(2).isEmpty)                                 // q2 does not share
    // q0 = [A] [B,C] [D]; q1 = [B,C] [E].
    assert(cw.querySegments(0).map(cw.segmentTypes) ==
      Vector(Vector(ids("A")), Vector(ids("B"), ids("C")), Vector(ids("D"))))
    assert(cw.querySegments(1).map(cw.segmentTypes) ==
      Vector(Vector(ids("B"), ids("C")), Vector(ids("E"))))
  }

  test("sharing reduces the number of distinct segment states") {
    val plan = Seq(candidate(w, Pattern("B", "C"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    // q0: A | BC | D; q1: BC | E; q2: AB -> segments {A, BC, D, E, AB} = 5
    assert(cw.distinctSegments == 5)
  }

  test("distinct segments are numbered by first use, queries and segments in order") {
    val plan = Seq(candidate(w, Pattern("B", "C"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    def types(ts: String*): Vector[Int] = ts.map(ids).toVector
    assert(cw.queryIds == Vector(0, 1, 2))
    assert(cw.segmentTypes ==
      Vector(types("A"), types("B", "C"), types("D"), types("E"), types("A", "B")))
    assert(cw.querySegments == Vector(Vector(0, 1, 2), Vector(1, 3), Vector(4)))
    assert(cw.readers.map(_.toSet).toSeq == Seq(
      Set(QuerySegment(0, 0)), Set(QuerySegment(0, 1), QuerySegment(1, 0)),
      Set(QuerySegment(0, 2)), Set(QuerySegment(1, 1)), Set(QuerySegment(2, 0))))
  }

  test("a query equal to the shared pattern has a single shared segment") {
    val w2   = Workload(win, Seq(Pattern("A", "B"), Pattern("A", "B", "C")))
    val ids2 = typeDictionary(w2)
    val plan = Seq(candidate(w2, Pattern("A", "B"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w2, plan, ids2)
    assert(cw.querySegments(0).map(s => (shared(cw)(s), cw.segmentTypes(s))) ==
      Vector((true, Vector(ids2("A"), ids2("B")))))
  }

  test("multiple non-overlapping shared patterns in one query") {
    val w2   = Workload(win, Seq(
      Pattern("A", "B", "C", "D"), Pattern("A", "B"), Pattern("C", "D")))
    val ids2 = typeDictionary(w2)
    val plan = Seq(
      candidate(w2, Pattern("A", "B"), Set(0, 1)),
      candidate(w2, Pattern("C", "D"), Set(0, 2)))
    val cw = CompiledPlan.compile(w2, plan, ids2)
    assert(cw.querySegments(0).map(shared(cw)) == Vector(true, true))
    assert(cw.distinctSegments == 2) // both patterns fully shared
  }

  test("dispatch: each type of a query reacts through exactly one (segment, level)") {
    val idsZ = ids + ("Z" -> ids.size) // Z is in the dictionary but in no query
    val cw   = CompiledPlan.compile(w, Seq(candidate(w, Pattern("B", "C"), Set(0, 1))), idsZ)
    for ((q, qi) <- w.queries.zipWithIndex; t <- q.pattern.types.map(idsZ)) {
      val held = cw.segmentsHolding(t).filter(sl => cw.readers(sl.segment).exists(_.query == qi))
      assert(held.length == 1, s"type $t of $q")
      val SegmentLevel(s, level) = held.head
      assert(cw.segmentTypes(s)(level) == t)
      val positions = cw.readers(s).filter(_.query == qi).map(_.position)
      assert(positions.map(cw.querySegments(qi)) == List(s), s"type $t of $q")
    }
    for (t <- Seq(idsZ("Z"), -1, 99)) assert(cw.segmentsHolding(t).isEmpty, s"type $t")
  }

  test("overlapping shared patterns are rejected (invalid plan)") {
    val plan = Seq(
      candidate(w, Pattern("A", "B"), Set(0, 2)),
      candidate(w, Pattern("B", "C"), Set(0, 1)))
    intercept[IllegalArgumentException](CompiledPlan.compile(w, plan, ids))
  }

  test("plan pattern absent from a member query is rejected") {
    val bogus = repro.core.Candidate(
      Pattern("D", "E"), w.queries.filter(q => Set(0, 1).contains(q.id)), 1.0)
    intercept[IllegalArgumentException](CompiledPlan.compile(w, Seq(bogus), ids))
  }

  test("a sharing candidate requires at least two queries (Definition 3)") {
    intercept[IllegalArgumentException](candidate(w, Pattern("B", "C"), Set(1)))
  }
}
