package repro.exec

import scala.collection.mutable
import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Model.WindowSpec
import CompiledPlan.CompiledWorkload

/** The two-step baselines of the paper's §8.2, built on Catalyst
  * DataFrame joins: event sequences are *constructed* (materialized as
  * join rows — polynomially many in the number of events per window) and
  * only then aggregated.
  *
  *  - **Flink-like** (non-shared two-step): every query independently
  *    builds its matches with an l-way self-join, then counts them.
  *  - **SPASS-like** (shared two-step): match relations of shared
  *    patterns are materialized once (persisted) and reused by all
  *    queries containing them; per-query prefix/suffix matches are built
  *    unshared and joined with the shared relation before counting —
  *    sharing the construction, not the aggregation.
  *
  * Both run the compiled plan the online executors follow ([[run]]): the
  * Flink-like one under the Non-Shared compilation, the SPASS-like one
  * under the sharing plan.
  */
object TwoStepExecutors {

  final case class RunResult(counts: DataFrame, matchesConstructed: Long, millis: Double)

  /** Explodes each event into the sliding windows containing it. */
  def windowed(spark: SparkSession, events: DataFrame, win: WindowSpec): DataFrame = {
    val windowsOf = udf((t: Long) => win.windowsOf(t))
    events.withColumn("ws", explode(windowsOf(col("time"))))
  }

  /** Constructs the match relation of `pattern` (dictionary-coded types)
    * over windowed events `we(ws, key, time, etype)`: one row per event
    * sequence, carrying the window, key, and first/last event times. Each
    * event is a one-event match (`t_first = t_last = time`), joined in
    * pattern order.
    */
  def matches(we: DataFrame, pattern: Seq[Int]): DataFrame =
    joinSegments(pattern.map(t =>
      we.filter(col("etype") === t)
        .select(col("ws"), col("key"), col("time").as("t_first"), col("time").as("t_last"))))

  /** Joins segment match relations in order (last event of a segment
    * strictly before the first of the next — within-segment order is
    * already enforced), yielding one row per full sequence.
    */
  private def joinSegments(segs: Seq[DataFrame]): DataFrame = {
    require(segs.nonEmpty)
    def tagged(i: Int): DataFrame = {
      val d = segs(i)
      d.select(col("ws").as(s"sws_$i"), col("key").as(s"skey_$i"),
        col("t_first").as(s"sf_$i"), col("t_last").as(s"sl_$i"))
    }
    var df = tagged(0).withColumnRenamed("sws_0", "ws").withColumnRenamed("skey_0", "key")
    for (i <- 1 until segs.size) {
      val cond: Column = col("ws") === col(s"sws_$i") &&
        col("key") === col(s"skey_$i") &&
        col(s"sl_${i - 1}") < col(s"sf_$i")
      df = df.join(tagged(i), cond).drop(s"sws_$i", s"skey_$i")
    }
    df.select(col("ws"), col("key"),
      col("sf_0").as("t_first"), col(s"sl_${segs.size - 1}").as("t_last"))
  }

  private def countsOf(queryId: Int, matchRel: DataFrame): DataFrame =
    matchRel.groupBy(col("ws").as("window_start"))
      .agg(count(lit(1)).as("cnt"))
      .select(lit(queryId).as("query_id"), col("window_start"), col("cnt"))

  /** Two-step execution of compiled workload `cw`: the match relation of
    * each distinct segment is constructed once (persisted) and reused by
    * every query reading it; each query joins its segments' relations
    * into full sequences and counts them per window. A relation is
    * unpersisted once the last query reading it is counted.
    * `matchesConstructed` counts the materialized segment matches — the
    * step that makes two-step approaches blow up (Fig 13).
    */
  def run(spark: SparkSession, events: DataFrame, cw: CompiledWorkload): RunResult = {
    val t0 = System.nanoTime()
    val we = windowed(spark, events, cw.window)
    var constructed = 0L
    val built = mutable.Map.empty[Int, DataFrame]
    def relation(s: Int): DataFrame = built.getOrElseUpdate(s, {
      val m = matches(we, cw.segmentTypes(s)).persist()
      constructed += m.count() // sequences are materialized, then aggregated
      m
    })
    val lastReader = cw.readers.map(_.map(_.query).max)
    val counts = cw.queryIds.indices.map { q =>
      val segs = cw.querySegments(q)
      val out  = countsOf(cw.queryIds(q), joinSegments(segs.map(relation))).cache()
      out.count()
      segs.filter(lastReader(_) == q).foreach(built(_).unpersist())
      out
    }.reduce(_ union _)
    val materialized = counts.cache(); materialized.count()
    RunResult(materialized, constructed, (System.nanoTime() - t0) / 1e6)
  }
}
