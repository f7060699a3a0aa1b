package repro.harness

import repro.{Configs, SparkSpec}
import repro.baseline.EgoScan
import repro.core.{DCSGreedy, NewSea, Peeling}
import repro.graph.WGraph

class DatasetsSpec extends SparkSpec {

  private def sets = Configs.tiny
  private def wg(key: String): WGraph = Configs.byKey(sets, key).wg

  private def sameCsr(a: WGraph, b: WGraph): Boolean =
    a.n == b.n && a.offsets.sameElements(b.offsets) && a.nbrs.sameElements(b.nbrs) && a.wts.sameElements(b.wts)

  test("configs lists the 16 Table II configurations in order, each on its own input") {
    assert(sets.map(_.key) == Seq(
      "DBLP/Weighted/Emerging", "DBLP/Weighted/Disappearing",
      "DBLP/Discrete/Emerging", "DBLP/Discrete/Disappearing",
      "DM/-/Emerging", "DM/-/Disappearing",
      "Wiki/-/Consistent", "Wiki/-/Conflicting",
      "Movie/-/Interest-Social", "Movie/-/Social-Interest",
      "Book/-/Interest-Social", "Book/-/Social-Interest",
      "DBLP-C/Weighted/-", "DBLP-C/Discrete/-",
      "Actor/Weighted/-", "Actor/Discrete/-",
    ))
    val t = Sizes.tiny
    val n = Map("DBLP" -> t.dblpN, "DM" -> t.dmN, "Wiki" -> t.wikiN, "Movie" -> t.doubanN,
      "Book" -> t.doubanN, "DBLP-C" -> t.dblpcN, "Actor" -> t.actorN)
    assert(Configs.tinyInputs.keySet == n.keySet)
    sets.foreach { ds =>
      assert(ds.in eq Configs.tinyInputs(ds.data), ds.key)
      assert(ds.n == n(ds.data) && ds.wg.n == ds.n, ds.key)
    }
  }

  test("Disappearing, Conflicting and Social-Interest are their partner's negation") {
    Seq(
      "DBLP/Weighted/Disappearing" -> "DBLP/Weighted/Emerging",
      "DBLP/Discrete/Disappearing" -> "DBLP/Discrete/Emerging",
      "DM/-/Disappearing" -> "DM/-/Emerging",
      "Wiki/-/Conflicting" -> "Wiki/-/Consistent",
      "Movie/-/Social-Interest" -> "Movie/-/Interest-Social",
      "Book/-/Social-Interest" -> "Book/-/Interest-Social",
    ).foreach { case (neg, pos) =>
      assert(wg(pos).numEdges > 0, pos)
      assert(sameCsr(wg(neg), wg(pos).negated), s"$neg vs $pos")
    }
  }

  test("DBLP-C and Actor Discrete keep their Weighted edge sets, in {±1, ±2} and capped at 10") {
    def sameEdges(a: WGraph, b: WGraph) = a.offsets.sameElements(b.offsets) && a.nbrs.sameElements(b.nbrs)
    val (dcW, dcD) = (wg("DBLP-C/Weighted/-"), wg("DBLP-C/Discrete/-"))
    assert(sameEdges(dcW, dcD))
    assert(dcD.wts.forall(Set(-2.0, -1.0, 1.0, 2.0)))
    assert(dcD.wts.indices.forall(i => math.signum(dcD.wts(i)) == math.signum(dcW.wts(i))))
    val (acW, acD) = (wg("Actor/Weighted/-"), wg("Actor/Discrete/-"))
    assert(sameEdges(acW, acD))
    assert(acW.wts.max > 10.0)
    assert(acD.wts.sameElements(acW.wts.map(math.min(_, 10.0))))
  }

  test("the Found rows carry the sets and measures of direct solver runs") {
    sets.filter(_.data == "DBLP").foreach { ds =>
      val g = ds.wg
      val ad = DCSGreedy.run(g)
      val Seq(dcs, gdOnly, gdpOnly) = Tables.dcsad(ds)
      assert(dcs.algo == "DCSGreedy" && dcs.s == ad.s.toSeq, ds.key)
      assert(dcs.rho == ad.density && dcs.ratio == ad.ratio && dcs.w == g.inducedWeight(ad.s.toSeq), ds.key)
      for ((row, algo, peeled) <- Seq((gdOnly, "GD only", g), (gdpOnly, "GD+ only", g.positivePart))) {
        val best = Peeling.greedy(peeled).best.toSeq
        assert(row.algo == algo && row.s == best, s"${ds.key} $algo")
        assert(row.rho == g.density(best) && row.ratio.isNaN && row.w == g.inducedWeight(best), s"${ds.key} $algo")
      }
      val ga = NewSea.run(g).best
      val sea = Tables.dcsga(ds)
      assert(sea.s == ga.supportSet.toSeq && sea.weights == ga.embedding.map(_._2).toSeq, ds.key)
      assert(sea.f == ga.f && sea.rho == g.density(sea.s) && sea.w == g.inducedWeight(sea.s), ds.key)
      val eg = EgoScan.run(g)
      val ego = Tables.egoScan(ds)
      assert(ego.s == eg.s.toSeq && ego.w == eg.totalWeight && ego.rho == g.density(ego.s), ds.key)
    }
  }
}
