package repro.exec

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.exec.CompiledPlan._
import EngineFixtures._

/** Online engine unit tests reproducing the paper's execution traces:
  * Fig 6(a) online aggregation, Fig 6(b) expiration, Fig 7 shared count
  * combination — plus tie handling and brute-force ground truth.
  */
class EngineSpec extends AnyFunSuite {

  // Alphabet A=0, B=1, C=2, D=3, E=4.
  private val ids  = Map[EventType, Int]("A" -> 0, "B" -> 1, "C" -> 2, "D" -> 3, "E" -> 4)
  private def ev(t: Long, ty: String): Event = Event(0L, t, ids(ty))

  private def workloadOf(win: WindowSpec, ps: Pattern*): Workload =
    Workload(win, ps)

  test("Fig 6(a): count(A,B) over a1 b2 a3 b4 b5 is 1, 3, 5") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B"))
    val cw  = CompiledPlan.nonShared(w, ids)
    val m   = new EngineMetrics
    val eng = new KeyGroupEngine(cw, m)
    def cnt(): Long =
      eng.results().collectFirst { case QueryWindowCount(_, 0L, c) => c }.getOrElse(0L)
    eng.feed(ev(1, "A")); eng.feed(ev(2, "B"))
    assert(cnt() == 1)
    eng.feed(ev(3, "A")); eng.feed(ev(4, "B"))
    assert(cnt() == 3)
    eng.feed(ev(5, "B"))
    assert(cnt() == 5)
  }

  test("Fig 6(b): expiration — window [2,6) counts 2") {
    val win = WindowSpec(4, 1)
    val w   = workloadOf(win, Pattern("A", "B"))
    val cw  = CompiledPlan.nonShared(w, ids)
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(4, "B"), ev(5, "B"))
    val (res, _) = runEngine(cw, events)
    assert(res((0, 2L)) == 2)  // (a3,b4), (a3,b5) — a1 expired
    assert(res((0, 0L)) == 1)  // (a1,b2)
    assert(res((0, 1L)) == 3)  // (a1,b2), (a1,b4), (a3,b4)
    assert(res((0, 3L)) == 2)  // (a3,b4), (a3,b5)
    assert(!res.contains((0, 4L)))
    assert(!res.contains((0, 5L)))
  }

  test("Fig 7: shared method — count(A,B,C,D) combined from (A,B) and (C,D) is 7") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C", "D"), Pattern("A", "B"))
    // Share (A,B) between both queries, and decompose q0 as (A,B)+(C,D)
    // via a private gap segment: compile with the shared candidate (A,B).
    val plan = Seq(candidate(w, Pattern("A", "B"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(3, "C"),
      ev(4, "B"), ev(5, "B"), ev(5, "D"), ev(7, "C"), ev(8, "D"))
    val (res, _) = runEngine(cw, events)
    assert(res((0, 0L)) == 7)  // the paper's count(A,B,C,D) = 7
    assert(res((1, 0L)) == 5)  // count(A,B) = 5 (Fig 6(a))
  }

  test("Fig 7 intermediate: after d5 the combined count is 1") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C", "D"))
    val plan = Seq()
    val cw  = CompiledPlan.nonShared(w, ids)
    val m   = new EngineMetrics
    val eng = new KeyGroupEngine(cw, m)
    Seq(ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(3, "C"), ev(4, "B"),
      ev(5, "B"), ev(5, "D")).foreach(eng.feed)
    val afterD5 = eng.results()
      .collectFirst { case QueryWindowCount(0, 0L, c) => c }.getOrElse(0L)
    assert(afterD5 == 1)
  }

  test("shared and non-shared compilations produce identical counts (Fig 7 stream)") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C", "D"), Pattern("A", "B"))
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(3, "C"),
      ev(4, "B"), ev(5, "B"), ev(5, "D"), ev(7, "C"), ev(8, "D"))
    val shared    = CompiledPlan.compile(w, Seq(candidate(w, Pattern("A", "B"), Set(0, 1))), ids)
    val nonShared = CompiledPlan.nonShared(w, ids)
    assert(runEngine(shared, events)._1 == runEngine(nonShared, events)._1)
  }

  test("strict time semantics: simultaneous events cannot form a sequence") {
    val win = WindowSpec(10, 10)
    val cw  = CompiledPlan.nonShared(workloadOf(win, Pattern("A", "B")), ids)
    val (res, _) = runEngine(cw, Seq(ev(1, "A"), ev(1, "B")))
    assert(res.isEmpty)
  }

  test("ties: a B at the same time as one A pairs only with earlier As") {
    val win = WindowSpec(10, 10)
    val cw  = CompiledPlan.nonShared(workloadOf(win, Pattern("A", "B")), ids)
    val (res, _) = runEngine(cw, Seq(ev(1, "A"), ev(2, "A"), ev(2, "B")))
    assert(res((0, 0L)) == 1) // only (a1, b2)
  }

  test("ties inside a shared combination step (C at same time as B)") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C"))
    val plan = Seq(candidate(workloadOf(win, Pattern("A", "B", "C"), Pattern("B", "C")),
      Pattern("B", "C"), Set(0, 1)))
    // simpler: non-shared vs brute force on the tie stream
    val cw = CompiledPlan.nonShared(w, ids)
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(2, "C"), ev(3, "C"))
    val (res, _) = runEngine(cw, events)
    assert(res((0, 0L)) == 1) // (a1,b2,c3) only; c2 simultaneous with b2
  }

  test("single-type gap segments behave like A-Seq levels") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C"), Pattern("A", "B"))
    val plan = Seq(candidate(w, Pattern("A", "B"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    // q0 = shared (A,B) + private gap (C) of length 1.
    assert(cw.queries(0).segments.map(_.types) == Vector(Vector(0, 1), Vector(2)))
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "C"), ev(4, "C"))
    val (res, _) = runEngine(cw, events)
    assert(res((0, 0L)) == 2)
    assert(res((1, 0L)) == 1)
  }

  test("prefix gap + shared + suffix gap decomposition") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C", "D"), Pattern("B", "C"))
    val plan = Seq(candidate(w, Pattern("B", "C"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    assert(cw.queries(0).segments.map(_.types) ==
      Vector(Vector(0), Vector(1, 2), Vector(3)))
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "C"), ev(4, "D"),
      ev(5, "B"), ev(6, "C"), ev(7, "D"))
    val (res, _) = runEngine(cw, events)
    // brute force: sequences A<B<C<D
    val expected = bruteCount(events, Vector(0, 1, 2, 3), win)
    assert(res.collect { case ((0, ws), c) => ws -> c } == expected)
  }

  test("empty stream yields no results") {
    val cw = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 1), Pattern("A", "B")), ids)
    assert(runEngine(cw, Seq.empty)._1.isEmpty)
  }

  test("stream with no END events yields no results") {
    val cw = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 1), Pattern("A", "B")), ids)
    assert(runEngine(cw, Seq(ev(1, "A"), ev(2, "A")))._1.isEmpty)
  }

  test("events of foreign types are ignored") {
    val cw = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 10), Pattern("A", "B")), ids)
    val (res, m) = runEngine(cw, Seq(ev(1, "A"), ev(2, "D"), ev(3, "C"), ev(4, "B")))
    assert(res((0, 0L)) == 1)
  }

  test("keys partition matches: multi-key streams sum per-key counts") {
    val win = WindowSpec(10, 10)
    val cw  = CompiledPlan.nonShared(workloadOf(win, Pattern("A", "B")), ids)
    val events = Seq(
      Event(1, 1, 0), Event(1, 2, 1),   // key 1: 1 match
      Event(2, 1, 0), Event(2, 2, 1), Event(2, 3, 1)) // key 2: 2 matches
    val res = runEngineMultiKey(cw, events)
    assert(res((0, 0L)) == 3)
  }

  test("metrics: sharing reduces work (shared pattern counted once)") {
    val win = WindowSpec(100, 100)
    val w = workloadOf(win, Pattern("A", "B", "C"), Pattern("A", "B", "D"))
    val events = randomEvents(1L, 60, 90, 4, 1)
    val planned = CompiledPlan.compile(w,
      Seq(candidate(w, Pattern("A", "B"), Set(0, 1))), ids)
    val (resS, mS) = runEngine(planned, events)
    val (resN, mN) = runEngine(CompiledPlan.nonShared(w, ids), events)
    assert(resS == resN)
    assert(mS.countUpdates < mN.countUpdates)
  }

  test("metrics: peak state is tracked and positive") {
    val cw = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 10), Pattern("A", "B")), ids)
    val (_, m) = runEngine(cw, Seq(ev(1, "A"), ev(2, "B")))
    assert(m.peakStateUnits > 0)
    assert(m.events == 2)
  }

  test("metrics: exact work, peak state and counts on a fixed tie-heavy stream") {
    val win = WindowSpec(12, 4)
    val w   = workloadOf(win, Pattern("A", "B", "C"), Pattern("B", "C", "D"), Pattern("A", "B", "C", "D"))
    val w2  = workloadOf(win, Pattern("A", "B", "C"), Pattern("A", "B", "D"))
    val w3  = workloadOf(win, Pattern("A", "B", "C"), Pattern("A", "B"))
    // 300 events on 81 time points: most timestamps are shared by several events.
    val events = randomEvents(7L, 300, 80, 4, 1)
    // (events, countUpdates, combMults, peakStateUnits, result cells, Σ counts)
    val pinned = Seq(
      "A-Seq" -> (CompiledPlan.nonShared(w, ids), (300L, 4458L, 4700L, 175L, 58, 13859L)),
      "one shared segment" -> (CompiledPlan.compile(w2,
        Seq(candidate(w2, Pattern("A", "B"), Set(0, 1))), ids), (300L, 736L, 1946L, 211L, 38, 5967L)),
      // q2 = [A] [B,C] [D]: an intermediate and a final combination level.
      "prefix + shared + suffix" -> (CompiledPlan.compile(w,
        Seq(candidate(w, Pattern("B", "C"), Set(0, 1, 2))), ids), (300L, 1055L, 9820L, 566L, 58, 13859L)),
      // q0 = [A,B] [C], q1 = [A,B]: one shared segment ends q1 (k == 1)
      // and feeds q0's combination (k == 2).
      "query equal to its shared pattern" -> (CompiledPlan.compile(w3,
        Seq(candidate(w3, Pattern("A", "B"), Set(0, 1))), ids), (300L, 649L, 2420L, 135L, 38, 3628L)))
    for ((name, (cw, expected)) <- pinned) {
      val (res, m) = runEngine(cw, events)
      val actual = (m.events, m.countUpdates, m.combMults, m.peakStateUnits, res.size, res.values.sum)
      assert(actual == expected, name)
    }
  }

  test("expiration prunes state on long streams (streaming emission)") {
    val win = WindowSpec(4, 1)
    val cw  = CompiledPlan.nonShared(workloadOf(win, Pattern("A", "B")), ids)
    val m   = new EngineMetrics
    val eng = new KeyGroupEngine(cw, m)
    var emitted = 0L
    (0 until 200).foreach { i =>
      eng.feed(ev(i * 2L, "A")); eng.feed(ev(i * 2L + 1, "B"))
      emitted += eng.emitClosed(i * 2L).map(_.count).sum
    }
    emitted += eng.emitClosed(Long.MaxValue).map(_.count).sum
    // START expiration + closed-window emission keep state bounded by the
    // window horizon, independent of stream length (§3.2).
    assert(m.peakStateUnits < 100)
    assert(emitted > 0)
  }

  test("property: A-Seq engine equals brute force on random streams") {
    val win = WindowSpec(12, 4)
    val w   = workloadOf(win, Pattern("A", "B", "C"), Pattern("B", "C"), Pattern("A", "B"))
    val cw  = CompiledPlan.nonShared(w, ids)
    for (seed <- 0L until 30L) {
      val events = randomEvents(seed, 40, 30, 4, 2)
      val res    = runEngineMultiKey(cw, events)
      val brute  = bruteWorkload(events, w, ids)
      assert(res == brute, s"seed=$seed")
    }
  }

  test("property: Sharon engine equals brute force under a sharing plan") {
    val win = WindowSpec(12, 4)
    val w1  = workloadOf(win, Pattern("A", "B", "C"), Pattern("B", "C", "D"), Pattern("A", "B", "C", "D"))
    val w2  = workloadOf(win, Pattern("A", "B", "C", "D", "E"), Pattern("B", "C"), Pattern("D", "E"))
    val w3  = workloadOf(win, Pattern("A", "B", "C", "D", "E"), Pattern("A", "B"), Pattern("D", "E"))
    val plans = Seq(
      // q2 = [A] [B,C] [D]
      "shared (B,C) with prefix and suffix" -> (w1, Seq(candidate(w1, Pattern("B", "C"), Set(0, 1, 2)))),
      // q0 = [A] [B,C] [D,E]: the intermediate level is a shared segment
      "two shared segments in one query" -> (w2, Seq(
        candidate(w2, Pattern("B", "C"), Set(0, 1)), candidate(w2, Pattern("D", "E"), Set(0, 2)))),
      // q0 = [A,B] [C] [D,E]: a single-type gap at the intermediate level
      "single-type gap between shared segments" -> (w3, Seq(
        candidate(w3, Pattern("A", "B"), Set(0, 1)), candidate(w3, Pattern("D", "E"), Set(0, 2)))))
    for ((name, (w, plan)) <- plans) {
      val cw       = CompiledPlan.compile(w, plan, ids)
      val numTypes = w.queries.flatMap(_.pattern.types).distinct.size
      var matched  = 0
      for (seed <- 0L until 30L) {
        val events = randomEvents(seed + 1000, 60, 30, numTypes, 2)
        val res    = runEngineMultiKey(cw, events)
        val brute  = bruteWorkload(events, w, ids)
        assert(res == brute, s"$name, seed=$seed")
        if (brute.keys.exists(_._1 == 0)) matched += 1
      }
      assert(matched > 0, s"$name: q0 never matched")
    }
  }

  test("property: engine results independent of same-time arrival order") {
    val win = WindowSpec(12, 4)
    val w   = workloadOf(win, Pattern("A", "B", "C"))
    val cw  = CompiledPlan.nonShared(w, ids)
    val events = Seq(ev(1, "A"), ev(1, "B"), ev(2, "B"), ev(2, "C"), ev(2, "A"), ev(3, "C"))
    val (r1, _) = runEngine(cw, events)
    val (r2, _) = runEngine(cw, events.reverse.sortBy(_.time))
    assert(r1 == r2)
  }
}
