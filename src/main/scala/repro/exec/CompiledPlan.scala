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
  * patterns per query). Segments carry a `shareKey`: shared segments of
  * the same pattern map to one runtime state reused by all subscribing
  * queries; private segments are keyed per query and position.
  */
object CompiledPlan {

  /** One segment of a query's decomposition. `types` are dictionary-coded
    * event types (see [[typeDictionary]]).
    */
  final case class CompiledSegment(shareKey: String, types: Vector[Int], shared: Boolean) {
    require(types.nonEmpty)
  }

  final case class CompiledQuery(id: Int, segments: Vector[CompiledSegment]) {
    require(segments.nonEmpty)
  }

  /** A type's place in a distinct segment: `segment` indexes
    * [[CompiledWorkload.segmentTypes]], `level` is the position in it.
    */
  final case class SegmentLevel(segment: Int, level: Int)

  /** A reader of a distinct segment: `query` indexes
    * [[CompiledWorkload.queries]], `position` is the segment's index among
    * the query's segments.
    */
  final case class QuerySegment(query: Int, position: Int)

  /** A compiled workload. Its body builds, once at compile time, the
    * wiring every key group's engine follows, so an engine only allocates
    * per-key state.
    */
  final case class CompiledWorkload(window: WindowSpec,
                                    queries: Vector[CompiledQuery],
                                    typeIds: Map[EventType, Int]) extends Serializable {
    /** `querySegments(q)(j)`: index into [[segmentTypes]] of query `q`'s
      * `j`-th segment; distinct segments are numbered by first use.
      */
    val querySegments: Vector[Vector[Int]] = {
      val index = mutable.HashMap.empty[String, Int]
      queries.map(_.segments.map(s => index.getOrElseUpdate(s.shareKey, index.size)))
    }

    /** Type vectors of the distinct segments (one per share-key): one
      * aggregation state each, however many queries read it.
      */
    val segmentTypes: Vector[Vector[Int]] =
      queries.flatMap(_.segments).distinctBy(_.shareKey).map(_.types)

    /** `readers(s)`: the queries that read distinct segment `s`. */
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

    /** Distinct segment share-keys — the number of aggregation states the
      * executor maintains (fewer = more sharing).
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
    */
  def compile(workload: Workload,
              plan: Seq[Candidate],
              typeIds: Map[EventType, Int]): CompiledWorkload = {
    val queries = workload.queries.map { q =>
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
      val segments = Vector.newBuilder[CompiledSegment]
      var pos      = 0
      var gapIdx   = 0
      def gap(until: Int): Unit =
        if (until > pos) {
          val ts = q.pattern.types.slice(pos, until)
          segments += CompiledSegment(s"q${q.id}#$gapIdx", ts.map(typeIds), shared = false)
          gapIdx += 1
          pos = until
        }
      for ((s, e, p) <- spans) {
        gap(s)
        segments += CompiledSegment("shared:" + p.types.mkString(","),
          p.types.map(typeIds), shared = true)
        pos = e
      }
      gap(q.pattern.length)
      CompiledQuery(q.id, segments.result())
    }
    CompiledWorkload(workload.window, queries, typeIds)
  }

  /** The Non-Shared (A-Seq) compilation: no sharing at all. */
  def nonShared(workload: Workload, typeIds: Map[EventType, Int]): CompiledWorkload =
    compile(workload, Nil, typeIds)
}
