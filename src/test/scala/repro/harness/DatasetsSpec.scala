package repro.harness

import repro.SparkSpec
import repro.graph.WGraph

class DatasetsSpec extends SparkSpec {

  // small enough to build all 16 configurations in seconds; every n is above
  // its generator's planted ids (Douban's background starts at id 1350)
  private val small = Sizes(400, 2000, 200, 2000, 400, 2000, 1500, 300, 2000, 300, 2000)
  private lazy val in = Datasets.inputs(spark, small)
  private lazy val sets = Datasets.configs(in)
  private def wg(key: String): WGraph = sets.find(_.key == key).get.wg

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
    val n = Map("DBLP" -> small.dblpN, "DM" -> small.dmN, "Wiki" -> small.wikiN, "Movie" -> small.doubanN,
      "Book" -> small.doubanN, "DBLP-C" -> small.dblpcN, "Actor" -> small.actorN)
    assert(in.keySet == n.keySet)
    sets.foreach { ds =>
      assert(ds.in eq in(ds.data), ds.key)
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
}
