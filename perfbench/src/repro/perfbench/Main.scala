package repro.perfbench

import org.apache.spark.sql.SparkSession

/** Entry point of the layered Sharon benchmark, one workload per JVM:
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      --work-dir <dir> [--expect-digest <sha256>]
  * }}}
  *
  * The last line of standard output is the JSON result; the exit code is
  * non-zero when any check failed.
  */
object Main {
  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        workDir: String, expectDigest: Option[String])

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String): String =
      kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, trace,
      need("work-dir"), kv.get("expect-digest"))
  }

  def main(argv: Array[String]): Unit = {
    val args  = parse(argv)
    val spec  = Spec.byName(args.workload)
    val spark = SparkSession.builder
      .master("local[*]")
      .appName(s"perfbench-${spec.name}")
      // The settings of the program's own job entry points.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // Keep every file Spark writes inside the work directory.
      .config("spark.local.dir", s"${args.workDir}/spark")
      .config("spark.sql.warehouse.dir", s"${args.workDir}/warehouse")
      .config("spark.sql.streaming.forceDeleteTempCheckpointLocation", "true")
      .getOrCreate()
    val ok = try new Bench(spark, spec, args).run() finally spark.stop()
    sys.exit(if (ok) 0 else 1)
  }
}
