package repro.experiments

import org.apache.spark.sql.SparkSession
import org.json4s.{DefaultFormats, Formats}
import org.json4s.jackson.{JsonMethods, Serialization}

/** Shared plumbing for the reproduced paper artifacts (Table 1, §8
  * Figs 13–16). Each artifact produces an [[ExperimentTable]] of the rows
  * the paper reports, printed in plain text, written to
  * `results/<name>.json` by [[Figures]] and judged by named [[Check]]s.
  */
object Harness {

  private implicit val formats: Formats = DefaultFormats

  final case class ExperimentTable(title: String, header: Seq[String],
                                   rows: Seq[Seq[String]]) {
    def render: String = {
      val all    = header +: rows
      val widths = header.indices.map(i => all.map(_(i).length).max)
      def line(cells: Seq[String]): String =
        cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      (Seq(s"== $title ==", line(header), sep) ++ rows.map(line)).mkString("\n")
    }

    /** The rows as column-name → cell maps, so checks read cells by
      * header name rather than by position.
      */
    def records: Seq[Map[String, String]] = rows.map(r => header.zip(r).toMap)

    /** The record whose `column` holds `value`. */
    def record(column: String, value: String): Map[String, String] =
      records.find(_(column) == value).getOrElse(
        throw new NoSuchElementException(s"no row with $column = $value in '$title'"))

    /** `{title, header, rows}` with one row per line, so that a re-run
      * shows in a diff row by row.
      */
    def toJson: String = {
      def js(v: AnyRef): String = Serialization.write(v)
      s"""{\n  "title": ${js(title)},\n  "header": ${js(header)},\n  "rows": [\n""" +
        rows.map(r => s"    ${js(r)}").mkString(",\n") + "\n  ]\n}"
    }
  }

  object ExperimentTable {
    def fromJson(json: String): ExperimentTable =
      JsonMethods.parse(json).extract[ExperimentTable]
  }

  /** A named shape check on an artifact's table: the paper property it
    * tests, and a function that returns one message per violation (empty
    * when the table conforms). Each message starts with the check's name.
    */
  final case class Check(name: String)(body: ExperimentTable => Seq[String]) {
    def apply(t: ExperimentTable): Seq[String] = body(t).map(m => s"$name: $m")
  }

  /** No violation when `ok`, else the one message `violation`. */
  def expect(ok: Boolean, violation: => String): Seq[String] =
    if (ok) Nil else Seq(violation)

  /** The check that `column` lists exactly the swept points, in order. */
  def onePerPoint(column: String, points: Seq[Any]): Check =
    Check(s"one row per point of '$column'") { t =>
      val (got, want) = (t.records.map(_(column)), points.map(_.toString))
      expect(got == want, s"rows $got, expected $want")
    }

  def ms(x: Double): String = f"$x%.1f"
  def ratio(a: Double, b: Double): String = if (b == 0) "-" else f"${a / b}%.2f"

  /** Two measurements of one quantity and their ratio, as cells. */
  def compared[A](a: A, b: A)(cell: A => String)(implicit n: Numeric[A]): Seq[String] =
    Seq(cell(a), cell(b), ratio(n.toDouble(a), n.toDouble(b)))

  /** The local Spark session every artifact and every test runs on. */
  def localSpark(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}
