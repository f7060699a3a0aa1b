package repro.data

import repro.SparkSpec
import repro.graph.DiffGraph
import repro.harness.Datasets.emerging

class SynthGraphsSpec extends SparkSpec {

  private lazy val dblp = SynthGraphs.dblp(spark, n = 1200, bgPairs = 6000)
  private lazy val dm = SynthGraphs.dm(spark, n = 800, bgPairs = 8000)
  private lazy val dblpDiff = emerging(dblp).cache()
  private lazy val dmDiff = emerging(dm).cache()

  test("DBLP: weight extremes match Table II (max 46, min -100)") {
    val s = DiffGraph.stats(dblpDiff, dblp.n)
    assert(s.maxW == 46.0)
    assert(s.minW == -100.0)
    assert(s.mPos > 1000 && s.mNeg > 1000)
  }

  test("DBLP: discrete mapping yields weights in {-2,-1,1,2} and drops diff-1 positives") {
    val disc = DiffGraph.discretize(dblpDiff)
    val weights = disc.select("w").distinct().collect().map(_.getDouble(0)).toSet
    assert(weights.subsetOf(Set(-2.0, -1.0, 1.0, 2.0)))
    val s = DiffGraph.stats(disc, dblp.n)
    val sw = DiffGraph.stats(dblpDiff, dblp.n)
    assert(s.mPos < sw.mPos / 2, s"discrete m+ ${s.mPos} should be well below weighted ${sw.mPos}")
    assert(s.mNeg == sw.mNeg, "all negative diffs survive discretization")
  }

  test("DBLP: planted groups are positive cliques in their difference graphs") {
    val g = DiffGraph.toWGraph(dblpDiff, dblp.n)
    assert(g.isPositiveClique(dblp.planted("UTA-ML")))
    assert(g.isPositiveClique(dblp.planted("CMU")))
    assert(g.negated.isPositiveClique(dblp.planted("Robotics1")))
    assert(g.negated.isPositiveClique(dblp.planted("Robotics3")))
    assert(g.negated.isPositiveClique(dblp.planted("Compiler")))
    assert(g.weight(18, 19) == -100.0)
  }

  test("DBLP: planted densities match the paper targets") {
    val g = DiffGraph.toWGraph(dblpDiff, dblp.n)
    assert(math.abs(g.density(dblp.planted("UTA-ML")) - 81.5) < 1e-9)
    assert(math.abs(g.negated.density(dblp.planted("Robotics1")) - 143.0) < 1e-9)
    val disc = DiffGraph.toWGraph(DiffGraph.discretize(dblpDiff), dblp.n)
    assert(math.abs(disc.density(dblp.planted("CMU")) - 12.0) < 1e-9)
    assert(math.abs(disc.negated.density(dblp.planted("Compiler")) - 2.0 * 237 / 22) < 1e-9)
  }

  test("DBLP: generation is deterministic") {
    val again = emerging(SynthGraphs.dblp(spark, n = 1200, bgPairs = 6000))
    val a = DiffGraph.stats(dblpDiff, dblp.n)
    val b = DiffGraph.stats(again, dblp.n)
    assert(a == b)
  }

  test("DM: weight extremes match Table II (max 1.988, min -5.997)") {
    val s = DiffGraph.stats(dmDiff, dm.n)
    assert(math.abs(s.maxW - 1.988) < 1e-9)
    assert(math.abs(s.minW - -5.997) < 1e-9)
  }

  test("DM: positive edges outnumber negative roughly 2:1 (Table II shape)") {
    val s = DiffGraph.stats(dmDiff, dm.n)
    val ratio = s.mPos.toDouble / s.mNeg
    assert(ratio > 1.5 && ratio < 2.8, s"ratio=$ratio")
  }

  test("DM: vocabulary renders planted keywords") {
    assert(dm.label(0) == "social")
    assert(dm.label(16) == "rules")
    assert(dm.label(500).startsWith("kw"))
  }

  test("DM: background weights stay below the planted topics") {
    val g = DiffGraph.toWGraph(dmDiff, dm.n)
    var maxBg = 0.0
    for (u <- 31 until dm.n) g.foreachNbr(u) { (v, w) => if (v >= 31) maxBg = math.max(maxBg, math.abs(w)) }
    assert(maxBg <= 0.5 + 1e-9, s"maxBg=$maxBg")
  }

  test("Wiki: extremes and orientation (consistent = positive minus conflict)") {
    val wiki = SynthGraphs.wiki(spark, n = 1500, bgPairs = 12000)
    val consistent = DiffGraph.difference(wiki.g2, wiki.g1) // w1 - w2
    val s = DiffGraph.stats(consistent, wiki.n)
    assert(math.abs(s.maxW - 9.619) < 1e-9)
    assert(math.abs(s.minW - -12.46) < 1e-9)
    assert(s.mNeg > s.mPos, "conflicts outnumber consistent pairs")
    val g = DiffGraph.toWGraph(consistent, wiki.n)
    assert(g.isPositiveClique(wiki.planted("Consistent5")))
    assert(g.negated.isPositiveClique(wiki.planted("Conflicting6")))
  }

  test("Douban Movie: unit weights, social edges dominate, planted cliques sized 32/18") {
    val mv = SynthGraphs.douban(spark, "Movie", n = 2000)
    val interestSocial = emerging(mv) // interest - social
    val s = DiffGraph.stats(interestSocial, mv.n)
    assert(s.maxW == 1.0 && s.minW == -1.0)
    assert(s.mNeg > s.mPos)
    val g = DiffGraph.toWGraph(interestSocial, mv.n)
    assert(mv.planted("InterestClique").size == 32)
    assert(mv.planted("SocialClique").size == 18)
    assert(g.isPositiveClique(mv.planted("InterestClique")))
    assert(g.negated.isPositiveClique(mv.planted("SocialClique")))
  }

  test("Douban Book: planted cliques sized 14/22") {
    val bk = SynthGraphs.douban(spark, "Book", n = 2000)
    val g = DiffGraph.toWGraph(emerging(bk), bk.n)
    assert(bk.planted("InterestClique").size == 14)
    assert(bk.planted("SocialClique").size == 22)
    assert(g.isPositiveClique(bk.planted("InterestClique")))
    assert(g.negated.isPositiveClique(bk.planted("SocialClique")))
  }

  test("DBLP-C: extremes +400/-186 and discretizeAll keeps all edges") {
    val dc = SynthGraphs.dblpC(spark, n = 5000, bgPairs = 20000)
    val diff = emerging(dc)
    val s = DiffGraph.stats(diff, dc.n)
    assert(s.maxW == 400.0 && s.minW == -186.0)
    val disc = DiffGraph.discretizeAll(diff)
    val sd = DiffGraph.stats(disc, dc.n)
    assert(sd.mPos == s.mPos && sd.mNeg == s.mNeg)
    assert(sd.maxW == 2.0 && sd.minW == -2.0)
  }

  test("Actor: pure positive difference graph, max 216, capping at 10 works") {
    val ac = SynthGraphs.actor(spark, n = 2000, bgPairs = 15000)
    val diff = emerging(ac)
    val s = DiffGraph.stats(diff, ac.n)
    assert(s.mNeg == 0)
    assert(s.maxW == 216.0)
    assert(s.minW >= 1.0)
    val capped = DiffGraph.stats(DiffGraph.capWeights(diff, 10.0), ac.n)
    assert(capped.maxW == 10.0)
    assert(capped.mPos == s.mPos)
  }

  test("background generation is independent of partitioning") {
    // 29 background ids give 406 pairs, so most of the 2,000 draws are
    // duplicates that the generator must collapse the same way every time
    val key = "spark.sql.leafNodeDefaultParallelism"
    val saved = spark.conf.getOption(key)
    def generate(slices: Int) = {
      spark.conf.set(key, slices.toLong)
      assert(spark.range(10).rdd.getNumPartitions == slices)
      SynthGraphs.dm(spark, n = 60, bgPairs = 2000).pairs.collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getDouble(3))).toSet
    }
    try {
      val a = generate(1)
      val b = generate(7)
      assert(a.count(_._1 >= 31) < 1000, "most draws are duplicates")
      assert(a == b)
    } finally saved.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  test("generators reject n that leaves no background ids") {
    // Douban's background starts at id 1350 and DM's at 31; Book's 1000 < 1350
    for (gen <- Seq[() => Any](() => SynthGraphs.douban(spark, "Movie", 1350), () => SynthGraphs.dm(spark, 31, 10),
                               () => SynthGraphs.douban(spark, "Book", 1000))) {
      val e = intercept[IllegalArgumentException](gen())
      assert(e.getMessage.contains("n = ") && e.getMessage.contains("lo = "), e.getMessage)
    }
  }
}
