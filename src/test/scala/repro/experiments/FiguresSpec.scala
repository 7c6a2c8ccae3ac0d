package repro.experiments

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import Figures.Artifact
import Harness._

/** The artifacts' shape checks, without Spark: each check passes a
  * hand-made conforming table and fails, by name, on a table that
  * violates only it; the committed JSON files under `results/` carry the
  * headers the code builds and pass every check.
  */
class FiguresSpec extends AnyFunSuite {

  private def artifact(name: String): Artifact = Figures.artifacts.find(_.name == name).get

  /** A table of `a` from column → cell records; unnamed cells are "-". */
  private def table(a: Artifact)(records: Map[String, String]*): ExperimentTable =
    ExperimentTable(a.name, a.header, records.map(r => a.header.map(r.getOrElse(_, "-"))))

  /** `t` with `column` set to `value` in the row whose first cell is `key`. */
  private def set(t: ExperimentTable, key: String, column: String, value: String): ExperimentTable = {
    val c = t.header.indexOf(column)
    require(c >= 0 && t.rows.exists(_.head == key), s"$key / $column")
    t.copy(rows = t.rows.map(r => if (r.head == key) r.updated(c, value) else r))
  }

  private def drop(t: ExperimentTable, key: String): ExperimentTable = {
    require(t.rows.exists(_.head == key), key)
    t.copy(rows = t.rows.filterNot(_.head == key))
  }

  private val table1 = {
    val paper = Seq(
      ("(ElmSt, ParkAve)", "q6,q7", "0"), ("(MainSt, StateSt)", "q1,q5", "1"),
      ("(MainSt, WestSt)", "q2,q4", "3"), ("(OakSt, MainSt)", "q1,q2,q3,q4", "5"),
      ("(OakSt, MainSt, WestSt)", "q2,q4", "4"), ("(ParkAve, OakSt)", "q3,q4", "3"),
      ("(ParkAve, OakSt, MainSt)", "q3,q4", "4"))
    table(artifact("table1"))(paper.map { case (p, q, d) =>
      Map("pattern" -> p, "queries" -> q, "conflicts" -> d) } :+
      Map("pattern" -> "plan score", "GO unit" -> "3.0", "SO unit" -> "3.0",
        "GO hot/rare" -> "81.1", "SO hot/rare" -> "155.1"): _*)
  }

  private val fig13 = table(artifact("fig13"))(Seq(
    (500, "2170", "1500"), (1000, "20246", "14133"), (2000, "249675", "90000"),
    (4000, "DNF", "DNF"), (8000, "DNF", "DNF")).map { case (epw, flink, spass) =>
    Map("events/window" -> epw.toString, "Flink-like ms" -> "7000.0", "A-Seq ms" -> "500.0",
      "Flink-like rows" -> flink, "SPASS-like rows" -> spass) }: _*)

  private val fig14 = table(artifact("fig14"))(
    (Seq("epw=10000", "epw=20000", "epw=40000", "epw=60000").map(_ -> "1.90") ++
      Seq("queries=20" -> "1.94", "queries=40" -> "1.89", "queries=80" -> "2.38",
        "queries=120" -> "2.56") ++
      Seq("len=10", "len=15", "len=20", "len=30").map(_ -> "2.00")).map { case (x, work) =>
      Map("x" -> x, "work ratio" -> work, "mem ratio" -> "2.25") }: _*)

  private val fig15 = table(artifact("fig15"))(Seq(
    ("10", "2.3", "3.5", "9.4"), ("20", "2.4", "4.1", "DNF"), ("30", "3.0", "6.9", "DNF"),
    ("50", "5.0", "20.0", "DNF"), ("70", "7.0", "117.0", "DNF")).map { case (q, go, so, eo) =>
    Map("queries" -> q, "GO ms" -> go, "SO ms" -> so, "EO ms" -> eo, "GO score" -> "100",
      "SO score" -> "120", "EO score" -> (if (eo == "DNF") "DNF" else "120")) }: _*)

  private val fig16 = table(artifact("fig16"))(Seq(
    ("21", "243", "465", "1.17"), ("63", "730", "1400", "1.19"),
    ("119", "1380", "2640", "1.18"), ("182", "2110", "4030", "1.18")).map { case (q, go, so, w) =>
    Map("queries" -> q, "GO score" -> go, "SO score" -> so, "work ratio" -> w) }: _*)

  /** Per artifact: a conforming table, and for each of its checks in
    * order, a table that violates that check only.
    */
  private val cases: Seq[(String, ExperimentTable, Seq[ExperimentTable])] = Seq(
    ("table1", table1, Seq(
      set(table1, "(ElmSt, ParkAve)", "conflicts", "1"),
      set(table1, "plan score", "SO hot/rare", "81.1"))),
    ("fig13", fig13, Seq(
      drop(fig13, "8000"),
      set(fig13, "2000", "A-Seq ms", "2500.0"),
      set(fig13, "2000", "Flink-like rows", "17360"),
      set(fig13, "1000", "SPASS-like rows", "20246"))),
    ("fig14", fig14, Seq(
      drop(fig14, "len=30"),
      set(fig14, "queries=40", "work ratio", "0.99"),
      set(fig14, "queries=120", "work ratio", "1.94"),
      set(fig14, "len=15", "work ratio", "0.50"),
      set(fig14, "queries=80", "mem ratio", "1.00"))),
    ("fig15", fig15, Seq(
      drop(fig15, "70"),
      set(fig15, "30", "GO ms", "8.0"),
      set(fig15, "50", "SO score", "99"),
      set(fig15, "10", "EO score", "121"),
      Seq("20", "30", "50", "70").foldLeft(fig15) { (t, q) =>
        set(set(t, q, "EO ms", "1000.0"), q, "EO score", "120") },
      set(fig15, "10", "EO ms", "1.0"))),
    ("fig16", fig16, Seq(
      drop(fig16, "182"),
      set(fig16, "63", "SO score", "700"),
      set(fig16, "21", "work ratio", "0.90"),
      Seq("21", "63", "119", "182").foldLeft(fig16)(set(_, _, "work ratio", "1.00")))))

  test("every artifact has hand-made cases for each of its checks") {
    assert(cases.map(_._1) == Figures.artifacts.map(_.name))
    cases.foreach { case (name, _, bad) => assert(bad.size == artifact(name).checks.size, name) }
  }

  for ((name, good, bad) <- cases) {
    val checks = artifact(name).checks
    test(s"$name: a conforming table passes every check") {
      assert(checks.flatMap(_(good)).isEmpty)
    }
    for ((c, i) <- checks.zipWithIndex) test(s"$name: '${c.name}' alone fails its violating table") {
      val failed = checks.map(_(bad(i)))
      assert(failed(i).nonEmpty && failed(i).forall(_.startsWith(s"${c.name}: ")), failed(i))
      assert(failed.patch(i, Nil, 1).forall(_.isEmpty), failed)
    }
  }

  for (a <- Figures.artifacts) test(s"committed results/${a.name}.json has the code's header and passes its checks") {
    val json = Files.readString(Paths.get("results", s"${a.name}.json"))
    val t    = ExperimentTable.fromJson(json)
    assert(t.header == a.header)
    assert(t.rows.nonEmpty && t.rows.forall(_.size == t.header.size))
    assert(a.checks.flatMap(_(t)).isEmpty)
    assert(t.toJson + "\n" == json, "the file is not what the runner writes for its own table")
  }

  test("committed fig16 GO and SO scores of the 21- and 63-query rows are the optimizers' own") {
    val p = Fig16PlanQuality.Params()
    val t = ExperimentTable.fromJson(Files.readString(Paths.get("results", "fig16.json")))
    for (nc <- p.numClusters.take(2)) {
      val (w, rates)       = Fig16PlanQuality.workload(nc, p)
      val (greedy, sharon) = Fig16PlanQuality.plans(w, rates, p)
      val row = t.record("queries", w.size.toString)
      assert(row("GO score").toDouble == greedy.score, s"GO at ${w.size} queries")
      assert(row("SO score").toDouble == sharon.score, s"SO at ${w.size} queries")
    }
  }

  test("results/ holds exactly the artifacts' JSON files") {
    val files = Files.list(Paths.get("results")).toArray.map(_.toString).sorted.toSeq
    assert(files == Figures.artifacts.map(a => Paths.get("results", s"${a.name}.json").toString).sorted)
  }
}
