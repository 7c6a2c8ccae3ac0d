package repro.exec

import scala.collection.mutable
import repro.core.Model.WindowSpec
import CompiledPlan._

/** The Sharon runtime engine for one key group (paper §3) — shared online
  * event sequence aggregation without sequence construction.
  *
  * Events arrive in time order. Each *segment runtime* implements the
  * A-Seq kernel (§3.2, Fig 6): one count per segment prefix per
  * non-expired START event; shared segments are evaluated once for all
  * subscribing queries. Each *query runtime* implements count combination
  * (§3.3, Fig 7): when segment `S_j`'s START event `c` arrives it
  * snapshots the running combined count of `S_1..S_{j-1}` per overall
  * START `a`; when sequences of `S_j` starting at `c` complete with
  * increment `δ`, it adds `snap(a,c) × δ` to the combined count per `a`.
  * The END event of the last segment updates the result of every window
  * it falls into, restricted to STARTs `a` inside that window
  * (Fig 6(b) expiration semantics); a single-segment query is the case
  * where every START `a` is the segment's own.
  *
  * The wiring — which segment runtimes a query reads and which runtimes
  * react to an event type — comes from the tables of `cw`, compiled once
  * per workload; an engine only allocates per-key state.
  *
  * Timestamp ties: sequence semantics require strictly increasing times
  * (Definition 1), so each event is evaluated on arrival against the
  * counts as of strictly-earlier times. The increments it causes are
  * committed when time advances; a START joins at once, and the
  * `s.time < e.time` test keeps it out of its own timestamp.
  */
final class KeyGroupEngine(cw: CompiledWorkload, metrics: EngineMetrics) {
  private val win: WindowSpec = cw.window

  /** Per-START-event state of one segment: `counts(j)` = number of
    * matches of the segment's first `j+1` types starting at this START
    * (`counts(0)` is identically 1 — the START itself).
    */
  final class StartState(val time: Long, nLevels: Int) {
    val counts = new Array[Long](nLevels)
    counts(0) = 1L
  }

  /** An increment of `delta` to the count at `level` for START `s`: a
    * segment's `s.counts(level)`, or a query's combined count
    * `comb(level)(s)`. Applied when time advances.
    */
  final class PendingInc(val s: StartState, val level: Int, val delta: Long)

  /** A-Seq state for one distinct segment of `size` types (§3.2); shared
    * across queries when the plan says so.
    */
  final class SegmentRuntime(size: Int) {
    // Appended in time order, so expired STARTs form a prefix.
    val starts = mutable.ArrayBuffer.empty[StartState]
    private var pendingIncs = List.empty[PendingInc]

    /** The START created by the last observed event, or null. */
    var newStart: StartState = null
    /** The full-segment matches the last observed event completes: the
      * increments of the final level, one per START.
      */
    var ends: List[PendingInc] = Nil

    /** Evaluates `e`, whose type is the segment's `level`-th, against the
      * committed counts; sets [[newStart]] and [[ends]].
      */
    def observe(e: Event, level: Int): Unit = {
      newStart = null
      ends = Nil
      if (level == 0) {
        newStart = new StartState(e.time, size)
        starts += newStart
        metrics.countUpdates += 1
        metrics.addState(size.toLong)
        // A single-type segment completes at its own START event.
        if (size == 1) ends = List(new PendingInc(newStart, 0, 1L))
      } else {
        val last = size - 1
        var i    = 0
        while (i < starts.size) {
          val s = starts(i)
          if (s.time < e.time) {
            metrics.countUpdates += 1
            val delta = s.counts(level - 1)
            if (delta > 0) {
              val inc = new PendingInc(s, level, delta)
              pendingIncs ::= inc
              if (level == last) ends ::= inc
            }
          }
          i += 1
        }
      }
    }

    /** Makes the increments of the last timestamp visible. */
    def commit(): Unit = {
      pendingIncs.foreach(p => p.s.counts(p.level) += p.delta)
      pendingIncs = Nil
    }

    /** Drop STARTs whose last containing window has closed (§3.2). Safe:
      * the window filter at result time already excludes them.
      */
    def expire(now: Long): Unit = {
      var dead = 0
      while (dead < starts.size && win.lastWindowEnd(starts(dead).time) <= now) dead += 1
      starts.remove(0, dead)
      metrics.removeState(dead * size.toLong)
    }
  }

  /** Count-combination state of one query over its `k` segments (§3.3).
    * Level `j` corresponds to the combined pattern `C_j = S_1..S_j`.
    */
  final class QueryRuntime(val q: CompiledQuery) {
    private val k = q.segments.size
    // comb(j), j < k-1: overall START `a` -> number of completed `C_{j+1}`
    // matches. The last level only feeds window results, so it has none.
    private val comb = Array.fill(k - 1)(mutable.AnyRefMap.empty[StartState, Long])
    // midSnaps(j-1), 0 < j < k-1: segment-j START `c` -> the positive
    // entries of comb(j-1) when `c` arrived.
    private val midSnaps =
      Array.fill(math.max(0, k - 2))(mutable.AnyRefMap.empty[StartState, mutable.AnyRefMap[StartState, Long]])
    // finalSnaps: last segment's START `c` -> `sums`, where `sums(i)` is
    // Σ comb(k-2)(a) over the STARTs `a` with
    // `a.time >= win.firstWindowStart(c.time) + i*slide`, for the windows
    // containing `c`. A completion then reads one cell per window instead
    // of iterating every overall START; this is what keeps single-sided
    // sharing's cost and memory quadratic (the literal Eq 5: the triple
    // product arises only between two combination levels, i.e. when both
    // a prefix and a suffix exist).
    private val finalSnaps  = mutable.AnyRefMap.empty[StartState, Array[Long]]
    private var pendingComb = List.empty[PendingInc]
    val results = mutable.LongMap.empty[Long] // windowStart -> count

    /** Combines event `e`, whose type lies in this query's `j`-th
      * segment `seg`: the only one of its segments that reacts, since a
      * pattern's types are distinct. Reads [[SegmentRuntime.newStart]] and
      * [[SegmentRuntime.ends]] of `seg` for `e`.
      */
    def observe(e: Event, j: Int, seg: SegmentRuntime): Unit = {
      // 1. Snapshot at a new START of a segment j >= 1 (Fig 7: "when c3
      //    arrives, count(A,B) = 1").
      if (j > 0 && seg.newStart != null) snapshot(j, seg.newStart)
      // 2. Completions. The last level updates the window results; below
      //    it, level 0 feeds comb(0) directly and level j >= 1 multiplies
      //    against the snapshot taken at its START.
      if (seg.ends.nonEmpty) {
        if (j == k - 1) end(e, seg.ends)
        else if (j == 0) seg.ends.foreach(p => pendingComb ::= new PendingInc(p.s, 0, p.delta))
        else
          seg.ends.foreach { p =>
            midSnaps(j - 1)(p.s).foreachEntry { (a, pref) =>
              metrics.combMults += 1
              pendingComb ::= new PendingInc(a, j, pref * p.delta)
            }
          }
      }
    }

    private def snapshot(j: Int, c: StartState): Unit =
      if (j == k - 1) {
        val firstWs = win.firstWindowStart(c.time)
        val sums    = new Array[Long](win.windowsOf(c.time).size)
        var touched = 0
        comb(j - 1).foreachEntry { (a, n) =>
          if (n > 0 && a.time >= firstWs) {
            touched += 1
            // `a` lies in every window of `c` that starts at or before a.time.
            sums(math.min(sums.length - 1, ((a.time - firstWs) / win.slideSec).toInt)) += n
          }
        }
        // Per-slide buckets to suffix sums: sums(i) = Σ_{p >= i} bucket(p).
        var i = sums.length - 2
        while (i >= 0) { sums(i) += sums(i + 1); i -= 1 }
        metrics.combMults += math.max(1, touched + sums.length)
        metrics.addState(sums.length.toLong + 1)
        finalSnaps(c) = sums
      } else {
        val snap = mutable.AnyRefMap.empty[StartState, Long]
        comb(j - 1).foreachEntry { (a, n) => if (n > 0) snap(a) = n }
        metrics.combMults += math.max(1, snap.size)
        metrics.addState(snap.size.toLong + 1)
        midSnaps(j - 1)(c) = snap
      }

    /** Window result updates at an END event (§3.2: "when an END event
      * arrives, it updates the final counts for all windows it falls
      * into"), one per window. A completion from last-segment START `c`
      * adds its increment in each window `c` lies in, weighted by 1 when
      * `c` is the overall START (`k == 1`) and by the snapshot cell of the
      * overall STARTs inside that window otherwise. Each (START, window)
      * pair is one work unit, for every `k`.
      */
    private def end(e: Event, ends: List[PendingInc]): Unit = {
      val wss = win.windowsOf(e.time)
      val sum = new Array[Long](wss.size)
      ends.foreach { p =>
        val c       = p.s
        val cells   = if (k == 1) null else finalSnaps(c)
        val firstWs = win.firstWindowStart(c.time)
        var w = 0
        while (w < wss.size) {
          metrics.combMults += 1
          val ws = wss(w)
          if (c.time >= ws)
            sum(w) += p.delta * (if (cells == null) 1L else cells(((ws - firstWs) / win.slideSec).toInt))
          w += 1
        }
      }
      var w = 0
      while (w < wss.size) { addResult(wss(w), sum(w)); w += 1 }
    }

    private def addResult(ws: Long, n: Long): Unit =
      if (n != 0) {
        if (!results.contains(ws)) metrics.addState(1)
        results(ws) = results.getOrElse(ws, 0L) + n
      }

    def commit(): Unit = {
      pendingComb.foreach { p =>
        if (!comb(p.level).contains(p.s)) metrics.addState(1)
        comb(p.level)(p.s) = comb(p.level).getOrElse(p.s, 0L) + p.delta
      }
      pendingComb = Nil
    }

    def expire(now: Long): Unit = {
      def drop[V](m: mutable.AnyRefMap[StartState, V])(units: V => Long): Unit =
        m.keysIterator.filter(a => win.lastWindowEnd(a.time) <= now).toList
          .foreach(a => metrics.removeState(units(m.remove(a).get)))
      comb.foreach(drop(_)(_ => 1L))
      midSnaps.foreach(drop(_)(_.size + 1L))
      drop(finalSnaps)(_.length + 1L)
    }
  }

  private val segments = cw.segmentTypes.map(ts => new SegmentRuntime(ts.size)).toArray
  private val queryRuntimes = cw.queries.map(new QueryRuntime(_)).toArray

  private var nextExpire = Long.MinValue
  private var lastTime   = Long.MinValue

  /** Makes the increments of the events at `lastTime` visible. */
  private def commit(): Unit = {
    segments.foreach(_.commit())
    queryRuntimes.foreach(_.commit())
  }

  /** Feeds one event; events must arrive in non-decreasing time order.
    * The event is evaluated at once; its increments are committed when
    * time advances (or at [[results]]/[[emitClosed]]).
    */
  def feed(e: Event): Unit = {
    require(e.time >= lastTime, "events must arrive in time order")
    if (e.time > lastTime) { commit(); lastTime = e.time }
    if (e.time >= nextExpire) {
      segments.foreach(_.expire(e.time))
      queryRuntimes.foreach(_.expire(e.time))
      nextExpire = e.time + win.slideSec
    }
    metrics.events += 1
    // Each segment runtime holding the type sees the event once — this is
    // the sharing: shared patterns are aggregated once (§3.3). Each query
    // reading that segment combines through it; a pattern's types are
    // distinct, so no other segment of the query reacts.
    cw.segmentsHolding(e.etype).foreach { sl =>
      val seg = segments(sl.segment)
      seg.observe(e, sl.level)
      cw.readers(sl.segment).foreach(r => queryRuntimes(r.query).observe(e, r.position, seg))
    }
  }

  /** Current per-key window counts of every query. */
  def results(): Iterator[QueryWindowCount] = {
    commit()
    for {
      qr        <- queryRuntimes.iterator
      (ws, cnt) <- qr.results.iterator
    } yield QueryWindowCount(qr.q.id, ws, cnt)
  }

  /** Streaming emission: returns and forgets the counts of all windows
    * fully before `watermark` (their results can no longer change).
    */
  def emitClosed(watermark: Long): Vector[QueryWindowCount] = {
    commit()
    val out = Vector.newBuilder[QueryWindowCount]
    queryRuntimes.foreach { qr =>
      val closed = qr.results.keysIterator
        .filter(ws => ws + win.lengthSec <= watermark).toList
      closed.foreach { ws =>
        out += QueryWindowCount(qr.q.id, ws, qr.results(ws))
        qr.results.remove(ws)
        metrics.removeState(1)
      }
    }
    out.result()
  }

  /** Processes a complete, time-sorted key group and returns the per-key
    * window counts of every query.
    */
  def run(events: Iterator[Event]): Iterator[QueryWindowCount] = {
    events.foreach(feed)
    results()
  }
}
