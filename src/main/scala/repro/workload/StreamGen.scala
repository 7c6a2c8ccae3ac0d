package repro.workload

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, LongType}
import repro.core.Model.{EventType, Rates}
import repro.exec.Event

/** Synthetic event streams standing in for the paper's data sets (§8.1):
  * NYC Taxi (real, 330 GB), Linear Road (simulator), and e-commerce
  * (private generator) are unavailable offline — see DESIGN.md. Streams
  * share the paper's schema: second-granularity timestamp, key (vehicle /
  * customer id), event type (position / item). Generation is
  * deterministic in the seed (hash-based, partitioning-independent).
  *
  * Event types are dictionary-coded 0..numTypes-1; [[typeName]] gives the
  * symbolic alphabet shared with [[WorkloadGen]].
  */
object StreamGen {

  def typeName(i: Int): EventType = f"T$i%03d"

  def typeIds(numTypes: Int): Map[EventType, Int] =
    (0 until numTypes).map(i => typeName(i) -> i).toMap

  /** Uniform stream: `numEvents` events spread evenly over
    * `durationSec`, types and keys i.i.d. uniform — the taxi / e-commerce
    * stand-in (rates are what the cost model consumes).
    */
  def uniform(spark: SparkSession, numEvents: Long, durationSec: Long,
              numTypes: Int, numKeys: Int, seed: Long = 7): Dataset[Event] = {
    import spark.implicits._
    spark.range(numEvents).select(
      pmod(hash($"id" + lit(seed * 1000003L)), lit(numKeys)).cast(LongType).as("key"),
      (($"id" * durationSec) / numEvents).cast(LongType).as("time"),
      pmod(hash($"id" + lit(seed * 7919L + 1L)), lit(numTypes)).cast(IntegerType).as("etype"),
    ).as[Event]
  }

  /** Linear-Road-like stream: event rate ramps up over the run (the LR
    * generator's rate grows from dozens to thousands of events/s). Times
    * follow `duration * sqrt(u)` so density grows linearly with time.
    */
  def linearRoadLike(spark: SparkSession, numEvents: Long, durationSec: Long,
                     numTypes: Int, numKeys: Int, seed: Long = 11): Dataset[Event] = {
    import spark.implicits._
    spark.range(numEvents).select(
      pmod(hash($"id" + lit(seed * 1000003L)), lit(numKeys)).cast(LongType).as("key"),
      floor(lit(durationSec) * sqrt($"id".cast("double") / numEvents)).cast(LongType).as("time"),
      pmod(hash($"id" + lit(seed * 7919L + 1L)), lit(numTypes)).cast(IntegerType).as("etype"),
    ).as[Event]
  }

  /** Weighted-type stream: type `i` is drawn with probability
    * `weights(i) / Σ weights`, uniformly over time and keys. Used when
    * the workload's cost structure needs non-uniform per-type rates
    * (e.g. hot trunk streets vs rare side streets in the taxi scenario).
    */
  def weighted(spark: SparkSession, numEvents: Long, durationSec: Long,
               weights: IndexedSeq[Double], numKeys: Int,
               seed: Long = 19): Dataset[Event] = {
    import spark.implicits._
    require(weights.nonEmpty && weights.forall(_ >= 0) && weights.sum > 0)
    val cum   = weights.scanLeft(0.0)(_ + _).tail.toArray
    val total = cum.last
    val pick = udf { (u: Double) =>
      val x  = u * total
      var lo = 0; var hi = cum.length - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) <= x) lo = mid + 1 else hi = mid
      }
      lo
    }
    spark.range(numEvents).select(
      pmod(hash($"id" + lit(seed * 1000003L)), lit(numKeys)).cast(LongType).as("key"),
      (($"id" * durationSec) / numEvents).cast(LongType).as("time"),
      pick(pmod(hash($"id" + lit(seed * 7919L + 1L)), lit(1000000)) / 1000000.0)
        .cast(IntegerType).as("etype"),
    ).as[Event]
  }

  /** Per-type rates in events **per window**. This is the unit that makes
    * the paper's cost model dimensionally consistent: with per-window
    * rates, the quadratic terms (Eqs 2, 4) count per-window count
    * updates and the triple-product combination term (Eq 5) counts
    * per-window (prefix START × p START × suffix START) multiplications —
    * matching what the executor actually does. Per-second rates would
    * underprice combination by a factor of the window length, making the
    * optimizer over-share on hot streams (see DESIGN.md).
    */
  def perWindowRates(eventsPerWindow: Long, numTypes: Int): Rates =
    Rates((0 until numTypes).map { i =>
      typeName(i) -> eventsPerWindow.toDouble / numTypes
    }.toMap)
}
