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

  test("ms formats one decimal") {
    assert(ms(12.345) == "12.3")
  }

  test("ratio guards division by zero") {
    assert(ratio(1.0, 0.0) == "-")
    assert(ratio(3.0, 2.0) == "1.50")
  }
}
