package repro.claims

import repro.{Configs, SparkSpec}
import repro.harness.{DiffSet, Tables}

/** Reproduces the appendix tables X-XIV (Wiki, Douban, DBLP-C, Actor).
  *
  * Paper shape: DCSAD groups are large non-cliques (Wiki 937/222 users,
  * Douban 610-4175); DCSGA groups are small — Wiki 5/6 users, Douban cliques
  * whose Motzkin-Straus values our planted cliques match exactly (32 -> 0.969,
  * 18 -> 0.944, 14 -> 0.929, 22 -> 0.955); DBLP-C Weighted finds the heavy
  * pair (f = 200), Actor Weighted a heavy triangle (f ~ 108).
  */
abstract class AppendixClaims(sets: => Seq[DiffSet]) extends SparkSpec {

  private def ds(key: String) = Configs.byKey(sets, key)

  private lazy val wikiGa = Seq("Wiki/-/Consistent", "Wiki/-/Conflicting").map(k => Tables.dcsga(ds(k)))
  private lazy val wikiAd = Seq("Wiki/-/Consistent", "Wiki/-/Conflicting").flatMap(k => Tables.dcsad(ds(k)))
  private lazy val doubanKeys = Seq("Movie/-/Interest-Social", "Movie/-/Social-Interest",
    "Book/-/Interest-Social", "Book/-/Social-Interest")
  protected lazy val doubanAd = doubanKeys.flatMap(k => Tables.dcsad(ds(k)))
  private lazy val doubanGa = doubanKeys.map(k => Tables.dcsga(ds(k)))
  private lazy val bigGa = Seq("DBLP-C/Weighted/-", "DBLP-C/Discrete/-",
    "Actor/Weighted/-", "Actor/Discrete/-").map(k => Tables.dcsga(ds(k)))

  /** Tables X-XIV's rows as text. */
  def rendered: String = Seq(
    "X (Wiki DCSGA)" -> wikiGa, "XI (Wiki DCSAD)" -> wikiAd, "XII (Douban DCSAD)" -> doubanAd,
    "XIII (Douban DCSGA)" -> doubanGa, "XIV (DBLP-C / Actor DCSGA)" -> bigGa,
  ).map { case (table, rs) => s"== Table $table\n${Tables.render(rs)}" }.mkString("\n")

  test("Table X: Wiki affinity groups are small (paper: 5 and 6 users, f 6.9 / 6.46)") {
    val cons = wikiGa.head; val conf = wikiGa(1)
    assert(cons.size == 5, s"got ${cons.size}")
    assert(conf.size == 6, s"got ${conf.size}")
    assert(math.abs(cons.f - 6.901) < 0.3, s"paper 6.901, ours ${cons.f}")
    assert(math.abs(conf.f - 6.456) < 0.3, s"paper 6.456, ours ${conf.f}")
  }

  test("Table XI: Wiki avg-degree groups are large non-cliques, consistent denser than conflicting") {
    val cons = wikiAd.find(r => r.ds.key.contains("Consistent") && r.algo == "DCSGreedy").get
    val conf = wikiAd.find(r => r.ds.key.contains("Conflicting") && r.algo == "DCSGreedy").get
    assert(cons.size > 30 && conf.size > 20, s"${cons.size}/${conf.size} (paper: 937/222)")
    assert(!cons.positiveClique && !conf.positiveClique)
    assert(cons.rho > conf.rho, "paper: 398.71 > 335.03")
    assert(cons.size > conf.size, "paper: 937 > 222")
    assert(cons.ratio < 4.0 && conf.ratio < 4.0, "paper: 2.13 / 2.06")
  }

  test("Table XIII: Douban affinity groups are the planted cliques and match Motzkin-Straus exactly") {
    val expected = Map(
      "Movie/-/Interest-Social" -> ("InterestClique", 32, 1.0 - 1.0 / 32),
      "Movie/-/Social-Interest" -> ("SocialClique", 18, 1.0 - 1.0 / 18),
      "Book/-/Interest-Social" -> ("InterestClique", 14, 1.0 - 1.0 / 14),
      "Book/-/Social-Interest" -> ("SocialClique", 22, 1.0 - 1.0 / 22),
    )
    doubanGa.foreach { r =>
      val (group, k, f) = expected(r.ds.key)
      assert(r.group == group, s"${r.ds.key}: group ${r.group}")
      assert(r.size == k, s"${r.ds.key}: size ${r.size} (paper: $k)")
      assert(math.abs(r.f - f) < 1e-3, s"${r.ds.key}: f ${r.f} (paper: $f)")
    }
  }

  test("Table XIV: DBLP-C heavy pair (f=200) and 26-clique; Actor triangle (f~108) and 21-clique") {
    val Seq(dcW, dcD, acW, acD) = bigGa
    assert(dcW.size == 2 && math.abs(dcW.f - 200.0) < 1e-6, s"paper: 2 users f=200, ours ${dcW.size}/${dcW.f}")
    assert(dcD.size == 26 && math.abs(dcD.f - 1.923) < 0.02, s"paper: 26 users f=1.919, ours ${dcD.size}/${dcD.f}")
    assert(acW.size == 3 && acW.f > 100 && acW.f < 120, s"paper: 3 users f=108.25, ours ${acW.size}/${acW.f}")
    assert(acD.size == 21 && acD.f > 9 && acD.f < 10, s"paper: 21 users f=6.46, ours ${acD.size}/${acD.f}")
  }

  test("pattern: affinity groups are far smaller than avg-degree groups (Section VI observation)") {
    val adSizes = doubanAd.filter(_.algo == "DCSGreedy").map(_.size)
    val gaSizes = doubanGa.map(_.size)
    assert(gaSizes.max < adSizes.min, s"ga ${gaSizes.toSeq} vs ad ${adSizes.toSeq}")
  }
}

class AppendixTiny extends AppendixClaims(Configs.tiny)
