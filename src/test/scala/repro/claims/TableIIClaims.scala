package repro.claims

import repro.{Configs, SparkSpec}
import repro.harness.{DiffSet, Tables}

/** Reproduces Table II: statistics of the 16 difference graphs.
  *
  * Paper numbers are 10-100x larger (real datasets); the assertions check the
  * *shape*: sign balance per dataset, the planted weight extremes, and the
  * relative m+/m- orderings the paper's analysis relies on.
  */
abstract class TableIIClaims(sets: => Seq[DiffSet]) extends SparkSpec {

  private lazy val rows = Tables.tableII(sets)
  protected def stat(key: String) = rows.find(_._1.key == key).get._2

  /** The table's rows as text. */
  def rendered: String = "== Table II\n" + Tables.renderII(rows)

  test("DBLP extremes match the paper exactly (max 46 / min -100, flipped for Disappearing)") {
    val em = stat("DBLP/Weighted/Emerging")
    assert(em.maxW == 46.0 && em.minW == -100.0)
    val dis = stat("DBLP/Weighted/Disappearing")
    assert(dis.maxW == 100.0 && dis.minW == -46.0)
    assert(em.mPos == dis.mNeg && em.mNeg == dis.mPos)
  }

  test("DBLP Discrete drops most positive edges but keeps all negatives (paper: 21k vs 61k)") {
    val w = stat("DBLP/Weighted/Emerging")
    val d = stat("DBLP/Discrete/Emerging")
    assert(d.maxW == 2.0 && d.minW == -2.0)
    assert(d.mNeg == w.mNeg)
    assert(d.mPos.toDouble / w.mPos < 0.55, s"${d.mPos} of ${w.mPos}")
  }

  test("DM: m+ ~ 2 m-, extremes 1.988 / -5.997") {
    val s = stat("DM/-/Emerging")
    assert(math.abs(s.maxW - 1.988) < 1e-9 && math.abs(s.minW + 5.997) < 1e-9)
    val ratio = s.mPos.toDouble / s.mNeg
    assert(ratio > 1.5 && ratio < 2.8, s"ratio $ratio (paper: 2.08)")
  }

  test("Wiki Consistent: conflicts outnumber positives, extremes 9.619 / -12.46") {
    val s = stat("Wiki/-/Consistent")
    assert(s.mNeg > s.mPos, "paper: m- = 1.26M > m+ = 763k")
    assert(math.abs(s.maxW - 9.619) < 1e-9 && math.abs(s.minW + 12.46) < 1e-9)
    assert(s.avgW < 0, "paper avg w = -0.474")
  }

  test("Douban: unit weights, social edges dominate both interests, Book sparser than Movie in interest") {
    val mv = stat("Movie/-/Interest-Social")
    val bk = stat("Book/-/Interest-Social")
    assert(mv.maxW == 1.0 && mv.minW == -1.0 && bk.maxW == 1.0 && bk.minW == -1.0)
    assert(mv.mNeg > mv.mPos && bk.mNeg > bk.mPos)
    assert(bk.mPos < mv.mPos, "paper: Book m+ 124k < Movie m+ 338k")
  }

  test("DBLP-C: extremes 400 / -186; Discrete keeps the same edge counts") {
    val w = stat("DBLP-C/Weighted/-")
    val d = stat("DBLP-C/Discrete/-")
    assert(w.maxW == 400.0 && w.minW == -186.0)
    assert(d.mPos == w.mPos && d.mNeg == w.mNeg, "paper Table II shows identical counts")
    assert(d.maxW == 2.0 && d.minW == -2.0)
  }
}

class TableIITiny extends TableIIClaims(Configs.tiny)
