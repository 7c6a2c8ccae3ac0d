package repro.perfbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import scala.collection.parallel.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Optimizer
import repro.exec.{CompiledPlan, EngineMetrics, KeyGroupEngine, OnlineExecutors,
  QueryWindowCount}
import repro.exec.CompiledPlan.CompiledWorkload

/** The untraced measurement of one workload and seed.
  *
  * A closed loop with one client. Each round sets up (optimizer and plan
  * compilation, repeated until [[Bench.MinSetupSeconds]] have passed) and
  * then runs the batch job once (`OnlineExecutors.run`). Rounds repeat
  * after [[Bench.WarmUpRounds]] warm-up rounds until `--seconds` have
  * passed. Every job's counts are checked against an untimed A-Seq
  * reference run.
  */
final class Bench(val spark: SparkSession, val spec: Spec, val args: Main.Args) {
  import Bench._

  val (in: Inputs, inputsS: Double) = time(Inputs.make(spark, spec, args.seed))
  private var attempted = 0
  private var failed    = 0

  /** One checked operation: it fails when it throws or `check` finds a
    * problem; either counts against `fail_ratio`.
    */
  def checked[A](what: String)(body: => A)(check: A => Option[String]): Option[A] = {
    attempted += 1
    val outcome =
      try { val a = body; check(a).toLeft(a) }
      catch { case NonFatal(e) => e.printStackTrace(); Left(e.toString) }
    outcome.left.foreach { p => failed += 1; System.err.println(s"FAILED $what: $p") }
    outcome.toOption
  }

  // Untimed reference: A-Seq (no sharing) over the same events, one
  // `KeyGroupEngine` per key group, the groups spread over all cores.
  val ((reference: Counts, referenceWork: Long), referenceS) = time {
    val aseq   = CompiledPlan.nonShared(in.workload, in.typeIds)
    val perKey = in.keyGroups.par.map { group =>
      val m = new EngineMetrics
      (m, new KeyGroupEngine(aseq, m).run(group.iterator).toVector)
    }.seq
    (countsOf(perKey.flatMap(_._2)), perKey.map(_._1.workUnits).sum)
  }

  def sameAsReference(c: Counts): Option[String] =
    if (c == reference) None
    else Some(s"${c.size} (query, window) counts differ from the ${reference.size} of A-Seq")

  // --- the layers, each one public call into the program.
  def optimize(): Optimizer.Result =
    Optimizer.sharon(in.workload, in.rates, maxOptions = Spec.maxOptions,
      maxLevelWidth = Spec.maxLevelWidth)

  def compile(r: Optimizer.Result): CompiledWorkload =
    CompiledPlan.compile(in.workload, r.plan, in.typeIds)

  /** `OnlineExecutors.run`, timed, then its counts collected untimed. */
  def batchRun(cw: CompiledWorkload): ((EngineMetrics, Counts), Double) = {
    val (r, s) = time(OnlineExecutors.run(spark, in.events, cw))
    ((r.metrics, collectCounts(r.counts)), s)
  }

  private def setups(): Option[(CompiledWorkload, Vector[Double])] =
    checked("setup") {
      quiesce()
      var times = Vector.empty[Double]
      var cw    = Option.empty[CompiledWorkload]
      while (times.isEmpty || times.sum < MinSetupSeconds && times.size < MaxSetups) {
        val (c, s) = time(compile(optimize()))
        cw = Some(c)
        times :+= s
      }
      (cw.get, times)
    }(_ => None)

  private def round(): Option[Sample] =
    for {
      (cw, setupS) <- setups()
      ((m, _), runS) <- checked("batch run") { quiesce(); batchRun(cw) } {
        case ((_, c), _) => sameAsReference(c)
      }
    } yield Sample(setupS, runS, m.peakStateUnits)

  def run(): Boolean = {
    val digest = Bench.digest(reference)
    println(s"workload ${spec.name} seed ${args.seed}: ${in.workload.size} queries, " +
      s"${spec.events} events, ${in.keyGroups.size} key groups")
    println(s"  A-Seq reference digest $digest (${reference.size} query-window counts)")
    args.expectDigest.foreach { d =>
      checked("recorded digest")(digest)(got =>
        if (got == d) None else Some(s"digest $got, recorded $d"))
    }
    val (_, warmUpS) = time((1 to WarmUpRounds).foreach(_ => round()))
    println(f"  untimed: inputs $inputsS%.1f s, A-Seq reference $referenceS%.1f s, " +
      f"warm-up $warmUpS%.1f s")
    val t0      = System.nanoTime()
    var rounds  = 0
    var samples = Vector.empty[Sample]
    while (rounds < MinRounds || (System.nanoTime() - t0) / 1e9 < args.seconds) {
      samples ++= round()
      rounds += 1
    }
    println(f"  $rounds timed rounds in ${(System.nanoTime() - t0) / 1e9}%.1f s")

    val endToEnd = Vector(
      ("setup_s", "s", samples.flatMap(_.setupS)),
      ("run_s", "s", samples.map(_.runS)),
      ("peak_state_units", "units", samples.map(_.peak.toDouble)))
    endToEnd.foreach { case (n, u, vs) => println(describe(n, u, vs)) }
    val medians = endToEnd.collect { case (n, u, vs) if vs.nonEmpty => (n, median(vs), u) }

    val metrics =
      if (args.trace) {
        def med(n: String) = medians.find(_._1 == n).fold(Double.NaN)(_._2)
        val perLayer = new TracedPass(this, med("setup_s"), med("run_s")).run()
        perLayer.zipWithIndex.foreach { case ((layer, n, v, u), i) =>
          if (i == 0 || perLayer(i - 1)._1 != layer) println(s"  [$layer]")
          println(f"    $n%-30s ${Json.num(v)} $u")
        }
        perLayer.map { case (_, n, v, u) => (n, v, u) }
      } else medians
    println(f"  fail_ratio         ${failed.toDouble / attempted}%.4f ($failed of $attempted checked runs failed)")
    val correct = failed == 0
    println(Json.obj(Seq(
      "correct"   -> correct.toString,
      "attempted" -> attempted.toString,
      "failed"    -> failed.toString,
      "metrics"   -> Json.obj(metrics.map { case (n, v, u) =>
        n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }))))
    correct
  }
}

object Bench {
  type Counts = Vector[(Int, Long, Long)]

  final case class Sample(setupS: Vector[Double], runS: Double, peak: Long)

  val WarmUpRounds    = 2
  val MinRounds       = 3
  val MinSetupSeconds = 0.25
  val MaxSetups       = 50
  /** Sample lists up to this length are printed in full. */
  val MaxListed       = 20

  def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Collects the garbage of the previous step, outside any timed interval. */
  def quiesce(): Unit = System.gc()

  def median(vs: Vector[Double]): Double = {
    val s = vs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def describe(name: String, unit: String, vs: Vector[Double]): String =
    if (vs.isEmpty) f"  $name%-18s no successful sample"
    else f"  $name%-18s ${Json.num(median(vs))} $unit (median of ${vs.size}, " +
      s"min ${Json.num(vs.min)}, max ${Json.num(vs.max)})" +
      (if (vs.size <= MaxListed) vs.map(v => f"$v%.4g").mkString("\n    samples: ", " ", "") else "")

  def collectCounts(df: DataFrame): Counts =
    try df.collect().map(r => (r.getInt(0), r.getLong(1), r.getLong(2))).filter(_._3 != 0)
      .sorted.toVector
    finally df.unpersist()

  def countsOf(rows: Iterable[QueryWindowCount]): Counts =
    rows.groupMapReduce(r => (r.queryId, r.windowStart))(_.count)(_ + _)
      .iterator.collect { case ((q, ws), c) if c != 0 => (q, ws, c) }.toVector.sorted

  /** SHA-256 over the sorted `query,window,count` lines. */
  def digest(c: Counts): String = {
    val md = MessageDigest.getInstance("SHA-256")
    c.foreach { case (q, ws, n) => md.update(s"$q,$ws,$n\n".getBytes(StandardCharsets.UTF_8)) }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}
