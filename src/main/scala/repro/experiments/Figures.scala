package repro.experiments

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import Harness._

/** The one entry point for the reproduced paper artifacts:
  * {{{
  * sbt "runMain repro.experiments.Figures <table1|fig13|fig14|fig15|fig16|all>"
  * }}}
  * For each selected artifact it builds the table once with the figure's
  * default parameters, prints it, writes `results/<name>.json` and runs
  * the artifact's shape checks. It exits with status 1 if any check
  * fails. Table 1 and Fig 15 need no Spark session.
  */
object Figures {

  final case class Artifact(name: String, header: Seq[String], checks: Seq[Check],
                            build: (=> SparkSession) => ExperimentTable)

  val artifacts: Seq[Artifact] = Seq(
    Artifact("table1", Table1RunningExample.header, Table1RunningExample.checks,
      _ => Table1RunningExample.run()),
    Artifact("fig13", Fig13TwoStepVsOnline.header, Fig13TwoStepVsOnline.checks,
      spark => Fig13TwoStepVsOnline.run(spark)),
    Artifact("fig14", Fig14OnlineApproaches.header, Fig14OnlineApproaches.checks,
      spark => Fig14OnlineApproaches.run(spark)),
    Artifact("fig15", Fig15OptimizerComparison.header, Fig15OptimizerComparison.checks,
      _ => Fig15OptimizerComparison.run()),
    Artifact("fig16", Fig16PlanQuality.header, Fig16PlanQuality.checks,
      spark => Fig16PlanQuality.run(spark)))

  def main(args: Array[String]): Unit = {
    val names = artifacts.map(_.name)
    val chosen = args.toSeq match {
      case Seq("all")                  => artifacts
      case Seq(n) if names.contains(n) => artifacts.filter(_.name == n)
      case _ =>
        Console.err.println(s"usage: Figures <${(names :+ "all").mkString("|")}>")
        sys.exit(2)
    }
    lazy val spark = localSpark("sharon-figures")
    Files.createDirectories(Paths.get("results"))
    val failures = chosen.flatMap { a =>
      val table = a.build(spark)
      println(table.render)
      Files.writeString(Paths.get("results", s"${a.name}.json"), table.toJson + "\n")
      a.checks.flatMap { c =>
        val failed = c(table)
        if (failed.isEmpty) println(s"  ok   ${c.name}") else failed.foreach(m => println(s"  FAIL $m"))
        failed
      }
    }
    SparkSession.getDefaultSession.foreach(_.stop())
    if (failures.nonEmpty) {
      Console.err.println(s"${failures.size} shape check(s) failed")
      sys.exit(1)
    }
  }
}
