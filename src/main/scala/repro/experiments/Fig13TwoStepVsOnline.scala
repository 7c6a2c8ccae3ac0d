package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.Optimizer
import repro.core.Model._
import repro.exec.{CompiledPlan, OnlineExecutors, TwoStepExecutors}
import repro.workload.{StreamGen, WorkloadGen}
import Harness._

/** Figure 13 reproduction: two-step (Flink-like, SPASS-like) versus
  * online (A-Seq, Sharon) approaches on a Linear-Road-like stream,
  * varying the number of events per window; latency and throughput.
  *
  * Paper setting: LR data set, up to 7k events/window; Flink fails above
  * 6k, SPASS above 7k (41 min/window), online approaches are ~5 orders of
  * magnitude faster. Scaled here: the traffic workload q1–q7 over a
  * 60 s / 30 s window; two-step runs above `twoStepCutoff` events/window
  * are reported DNF instead of hanging the run (the paper reports the
  * same as "does not terminate"). The `rows` columns count the sequences
  * each two-step baseline materialized — the driver of its blow-up.
  */
object Fig13TwoStepVsOnline {

  final case class Params(
      eventsPerWindow: Seq[Int] = Seq(500, 1000, 2000, 4000, 8000),
      twoStepCutoff: Int = 8000,
      window: WindowSpec = WindowSpec(60, 30),
      numKeys: Int = 20,
      seed: Long = 17)

  def run(spark: SparkSession, p: Params = Params()): ExperimentTable = {
    val workload = WorkloadGen.traffic(p.window)
    val typeIds  = CompiledPlan.typeDictionary(workload)
    val nTypes   = typeIds.size
    val aseq     = CompiledPlan.nonShared(workload, typeIds)
    val duration = p.window.lengthSec * 2
    // Warm up Spark/JIT so the first measured point is not inflated by
    // classloading and first-job overheads.
    locally {
      val ev = StreamGen.linearRoadLike(spark, 100, duration, nTypes, p.numKeys, 1).cache()
      ev.count()
      OnlineExecutors.run(spark, ev, aseq)
      TwoStepExecutors.run(spark, ev.toDF(), aseq)
      ev.unpersist()
    }
    val rows = p.eventsPerWindow.map { epw =>
      val nEvents = epw.toLong * duration / p.window.lengthSec
      val events = StreamGen.linearRoadLike(
        spark, nEvents, duration, nTypes, p.numKeys, p.seed).cache()
      events.count()
      val eventsDf = events.toDF()
      // Per-window rate units (see StreamGen.perWindowRates).
      val rates = Rates(typeIds.map { case (n, _) =>
        n -> epw.toDouble / nTypes })
      val sharon = CompiledPlan.compile(workload, Optimizer.sharon(workload, rates).plan, typeIds)

      def thr(msTotal: Double): String =
        if (msTotal <= 0) "-" else f"${nEvents * workload.size / (msTotal / 1000)}%.0f"

      val (aseqMs, sharonMs) = {
        val a = OnlineExecutors.run(spark, events, aseq)
        val s = OnlineExecutors.run(spark, events, sharon)
        (a.millis, s.millis)
      }
      val (flink, spass) =
        if (epw > p.twoStepCutoff) (None, None)
        else (Some(TwoStepExecutors.run(spark, eventsDf, aseq)),
          Some(TwoStepExecutors.run(spark, eventsDf, sharon)))
      events.unpersist()
      def twoStep(cell: TwoStepExecutors.RunResult => String) =
        Seq(flink, spass).map(_.map(cell).getOrElse("DNF"))
      Seq(epw.toString) ++ twoStep(r => ms(r.millis)) ++ Seq(ms(aseqMs), ms(sharonMs)) ++
        twoStep(r => thr(r.millis)) ++ Seq(thr(aseqMs), thr(sharonMs)) ++
        twoStep(_.matchesConstructed.toString)
    }
    ExperimentTable(
      "Fig 13: two-step vs online (LR-like stream, traffic workload)", header, rows)
  }

  val header: Seq[String] = Seq("events/window",
    "Flink-like ms", "SPASS-like ms", "A-Seq ms", "Sharon ms",
    "Flink ev/s", "SPASS ev/s", "A-Seq ev/s", "Sharon ev/s",
    "Flink-like rows", "SPASS-like rows")

  private def at(t: ExperimentTable, epw: Int): Map[String, String] =
    t.record("events/window", epw.toString)

  /** The paper's Fig 13 shape. The two-step blow-up is read from the
    * sequences each baseline materialized (deterministic), the latency
    * gap from wall-clock at a point where both complete.
    */
  val checks: Seq[Check] = Seq(
    onePerPoint("events/window", Params().eventsPerWindow),
    Check("online beats two-step decisively at 2000 events/window") { t =>
      val (flink, aseq) = (at(t, 2000)("Flink-like ms").toDouble, at(t, 2000)("A-Seq ms").toDouble)
      expect(flink > 3 * aseq, s"Flink-like $flink ms is not > 3 x A-Seq $aseq ms")
    },
    Check("sequence construction grows superlinearly in events/window") { t =>
      val (c1, c4) = (at(t, 500)("Flink-like rows").toLong, at(t, 2000)("Flink-like rows").toLong)
      expect(c4 > 8 * c1, s"Flink-like rows $c4 at 2000 events/window is not > 8 x $c1 at 500")
    },
    Check("SPASS-like shares construction: fewer rows than Flink-like") { t =>
      val (f, s) = (at(t, 1000)("Flink-like rows").toLong, at(t, 1000)("SPASS-like rows").toLong)
      expect(s < f, s"SPASS-like rows $s at 1000 events/window is not < Flink-like $f")
    })
}
