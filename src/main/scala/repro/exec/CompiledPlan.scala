package repro.exec

import scala.collection.mutable
import repro.core.Model._
import repro.core.Candidate

/** Compile-time representation of a workload under a sharing plan — the
  * "compiled sharing graph" the runtime executor follows (paper §2.2:
  * the static optimizer's plan guides the executor).
  *
  * Each query's pattern is decomposed into contiguous *segments*: the
  * shared patterns assigned to it by the plan, plus unshared gap segments
  * (the `prefix`/`suffix` of Definition 4, generalized to multiple shared
  * patterns per query). All queries assigned one shared pattern read one
  * distinct segment, so one runtime state serves them all; each gap
  * segment is distinct and read by its query alone.
  */
object CompiledPlan {

  /** A type's place in a distinct segment: `segment` indexes
    * [[CompiledWorkload.segmentTypes]], `level` is the position in it.
    */
  final case class SegmentLevel(segment: Int, level: Int)

  /** A reader of a distinct segment: `query` indexes
    * [[CompiledWorkload.queryIds]], `position` is the segment's index among
    * the query's segments.
    */
  final case class QuerySegment(query: Int, position: Int)

  /** A compiled workload: the distinct segments and each query's
    * decomposition into them. Its body builds, once at compile time, the
    * wiring every key group's engine follows, so an engine only allocates
    * per-key state.
    *
    * @param queryIds      the workload's query ids, in workload order
    * @param segmentTypes  the dictionary-coded types (see [[typeDictionary]])
    *                      of each distinct segment: one aggregation state
    *                      each, however many queries read it
    * @param querySegments `querySegments(q)(j)`: index into `segmentTypes`
    *                      of query `q`'s `j`-th segment
    */
  final case class CompiledWorkload(window: WindowSpec,
                                    queryIds: Vector[Int],
                                    segmentTypes: Vector[Vector[Int]],
                                    querySegments: Vector[Vector[Int]]) extends Serializable {
    require(querySegments.size == queryIds.size && querySegments.forall(_.nonEmpty) &&
      segmentTypes.forall(_.nonEmpty), "every query and every segment is non-empty")

    /** `readers(s)`: the queries that read distinct segment `s`; a segment
      * is shared exactly when it has more than one reader.
      */
    val readers: Array[List[QuerySegment]] = Array.fill(segmentTypes.size)(Nil)
    for (q <- querySegments.indices; j <- querySegments(q).indices)
      readers(querySegments(q)(j)) ::= QuerySegment(q, j)

    // Dispatch table indexed by type id. A pattern's types are distinct
    // and its segments are disjoint slices of it, so a type occupies at
    // most one level of a segment and one segment of a query.
    private val segmentsByType: Array[List[SegmentLevel]] =
      Array.fill(segmentTypes.iterator.flatten.maxOption.fold(0)(_ + 1))(Nil)
    for (s <- segmentTypes.indices; level <- segmentTypes(s).indices)
      segmentsByType(segmentTypes(s)(level)) ::= SegmentLevel(s, level)

    /** The distinct segments that react to an event of type `etype`. */
    def segmentsHolding(etype: Int): List[SegmentLevel] =
      if (etype >= 0 && etype < segmentsByType.length) segmentsByType(etype) else Nil

    /** The number of aggregation states the executor maintains per key
      * (fewer = more sharing).
      */
    def distinctSegments: Int = segmentTypes.size
  }

  /** Stable event-type dictionary for a workload (executor-side types are
    * ints; streams must be generated with the same dictionary).
    */
  def typeDictionary(workload: Workload): Map[EventType, Int] =
    workload.queries.flatMap(_.pattern.types).distinct.sorted.zipWithIndex.toMap

  /** Decomposes `workload` under `plan`. An empty plan yields one private
    * whole-pattern segment per query — exactly the Non-Shared method
    * (A-Seq, §3.2); with a plan, queries covered by shared candidates get
    * `prefix / shared / suffix` segments (§3.3). Plans must be valid
    * (Definition 7): shared patterns assigned to one query cannot overlap.
    *
    * Distinct segments are numbered by first use, walking the queries and
    * each query's segments in order.
    */
  def compile(workload: Workload,
              plan: Seq[Candidate],
              typeIds: Map[EventType, Int]): CompiledWorkload = {
    val segmentTypes = mutable.ArrayBuffer.empty[Vector[Int]]
    def newSegment(types: Vector[EventType]): Int = {
      segmentTypes += types.map(typeIds)
      segmentTypes.size - 1
    }
    val sharedSegment = mutable.HashMap.empty[Pattern, Int]
    val querySegments = workload.queries.map { q =>
      // Shared patterns of this query, with their (unique) occurrence span.
      val spans = plan.iterator
        .filter(_.queryIds.contains(q.id))
        .map { c =>
          val i = q.pattern.indexOf(c.pattern).getOrElse(
            throw new IllegalArgumentException(s"plan pattern ${c.pattern} not in $q"))
          (i, i + c.pattern.length, c.pattern)
        }
        .toVector.sortBy(_._1)
      spans.sliding(2).foreach {
        case Vector((_, e1, p1), (s2, _, p2)) =>
          require(e1 <= s2, s"overlapping shared patterns $p1/$p2 in $q — invalid plan")
        case _ => ()
      }
      val segments = Vector.newBuilder[Int]
      var pos      = 0
      def gap(until: Int): Unit =
        if (until > pos) {
          segments += newSegment(q.pattern.types.slice(pos, until))
          pos = until
        }
      for ((s, e, p) <- spans) {
        gap(s)
        segments += sharedSegment.getOrElseUpdate(p, newSegment(p.types))
        pos = e
      }
      gap(q.pattern.length)
      segments.result()
    }
    CompiledWorkload(workload.window, workload.queries.map(_.id),
      segmentTypes.toVector, querySegments)
  }

  /** The Non-Shared (A-Seq) compilation: no sharing at all. */
  def nonShared(workload: Workload, typeIds: Map[EventType, Int]): CompiledWorkload =
    compile(workload, Nil, typeIds)
}
