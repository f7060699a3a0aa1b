package repro.claims

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import org.scalatest.funsuite.AnyFunSuite

import scala.io.Source
import scala.util.Using

/** Every claim class's rendered rows at `Sizes.tiny` against the committed
  * `src/test/resources/tables-tiny.txt`, so that a change to any result of
  * any table fails here even where no claim bounds it. On a mismatch the rows
  * are written to `target/tables-tiny.actual.txt`; copying that file over the
  * committed one accepts the change.
  */
class TablesTinyGolden extends AnyFunSuite {

  test("the tables at Sizes.tiny render as tables-tiny.txt") {
    val actual = Seq(new TableIITiny().rendered, new TableIII_IVTiny().rendered, new TableV_VITiny().rendered,
      new TableVIITiny().rendered, new TableVIII_IXTiny().rendered, new AppendixTiny().rendered).mkString("", "\n", "\n")
    val expected = Using.resource(Source.fromResource("tables-tiny.txt"))(_.mkString)
    if (actual != expected) {
      val out = Paths.get("target", "tables-tiny.actual.txt")
      Files.write(out, actual.getBytes(UTF_8))
      val (a, e) = (actual.split("\n", -1).lift, expected.split("\n", -1).lift)
      val i = Iterator.from(0).find(i => a(i) != e(i)).get
      def line(l: Option[String]) = l.getOrElse("<end of file>")
      fail(s"line ${i + 1} differs: expected\n  ${line(e(i))}\nbut got\n  ${line(a(i))}\n(all rows written to $out)")
    }
  }
}
