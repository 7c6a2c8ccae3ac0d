package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import Harness._

/** Experiment harness plumbing tests. */
class HarnessSpec extends AnyFunSuite {

  test("table renders aligned columns with title and separator") {
    val t = ExperimentTable("demo", Seq("a", "bbb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.render.linesIterator.toVector
    assert(lines.head == "== demo ==")
    assert(lines(1).contains("| a   | bbb |"))
    assert(lines(2).startsWith("|-"))
    assert(lines.size == 5)
  }

  test("JSON round trip returns the same table, one row per line") {
    val t = ExperimentTable("Fig \"x\" \u2014 a\\b", Seq("a", "b"), Seq(Seq("1", ""), Seq("q1,q2", "DNF")))
    assert(ExperimentTable.fromJson(t.toJson) == t)
    assert(t.toJson.linesIterator.count(_.startsWith("    [")) == 2)
    val empty = ExperimentTable("e", Seq("a"), Nil)
    assert(ExperimentTable.fromJson(empty.toJson) == empty)
  }

  test("ms formats one decimal") {
    assert(ms(12.345) == "12.3")
  }

  test("ratio guards division by zero") {
    assert(ratio(1.0, 0.0) == "-")
    assert(ratio(3.0, 2.0) == "1.50")
  }
}
