package repro.exec

import scala.collection.mutable
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.exec.CompiledPlan.CompiledWorkload

/** Sharon as a Structured Streaming DAG: a `MemoryStream` source feeds
  * micro-batches through `foreachBatch` into the shared stateful operator
  * ([[KeyGroupEngine]] per key, one compiled sharing graph for all
  * queries). Window results are emitted as soon as the event-time
  * watermark passes a window's end — the streaming behaviour of §2.2's
  * runtime executor. Batch and streaming execution produce identical
  * counts (tested), since the engine is incremental by construction.
  *
  * State lives driver-side (local deployment): micro-batches are small
  * and arrive time-ordered, which preserves the per-key in-order
  * requirement of the engine.
  */
object StructuredSharon {

  final case class StreamRunResult(
      emitted: Vector[QueryWindowCount],       // closed-window results, workload level
      emissionBatch: Vector[Long],             // batch id at which each was emitted
      metrics: EngineMetrics,
      batches: Long)

  /** Runs `events` (already time-sorted) through a streaming query in
    * micro-batches of `batchSeconds` event time.
    */
  def run(spark: SparkSession, events: Seq[Event], cw: CompiledWorkload,
          batchSeconds: Long): StreamRunResult = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext

    val metrics = new EngineMetrics
    val engines = mutable.LongMap.empty[KeyGroupEngine]
    // Closed windows are per-key partial counts; sum across keys.
    val emittedAgg    = mutable.LinkedHashMap.empty[(Int, Long), Long]
    val emissionBatch = mutable.LinkedHashMap.empty[(Int, Long), Long]
    def emit(watermark: Long, batchId: Long): Unit =
      engines.values.foreach { eng =>
        eng.emitClosed(watermark).foreach { r =>
          val k = (r.queryId, r.windowStart)
          emittedAgg(k) = Math.addExact(emittedAgg.getOrElse(k, 0L), r.count)
          emissionBatch.getOrElseUpdate(k, batchId)
        }
      }

    val source = MemoryStream[Event]
    val query = source.toDS().writeStream
      .outputMode("update")
      .foreachBatch { (batch: Dataset[Event], batchId: Long) =>
        val rows = batch.collect().sortBy(e => (e.time, e.etype))
        rows.foreach { e =>
          engines.getOrElseUpdate(e.key, new KeyGroupEngine(cw, metrics)).feed(e)
        }
        // Watermark strictly past all seen times.
        if (rows.nonEmpty) emit(rows.map(_.time).max + 1, batchId)
      }
      .start()

    var batches = 0L
    try {
      events.groupBy(_.time / batchSeconds).toSeq.sortBy(_._1).foreach { case (_, chunk) =>
        source.addData(chunk.sortBy(_.time))
        query.processAllAvailable()
        batches += 1
      }
      // Final flush: close every remaining window.
      emit(Long.MaxValue, batches)
    } finally query.stop()

    StreamRunResult(
      emittedAgg.iterator.map { case ((q, ws), c) => QueryWindowCount(q, ws, c) }.toVector,
      emittedAgg.keysIterator.map(emissionBatch).toVector,
      metrics, batches)
  }
}
