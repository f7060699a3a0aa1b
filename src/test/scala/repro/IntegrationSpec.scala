package repro

import org.apache.spark.sql.functions.col
import repro.baseline.EgoScan
import repro.core._
import repro.data.SynthGraphs
import repro.graph.{DiffGraph, WGraph}
import repro.harness.Datasets.emerging

/** End-to-end runs of every algorithm on small planted datasets, asserting the
  * paper's qualitative findings (Tables III-VI, VIII, IX) hold.
  */
class IntegrationSpec extends SparkSpec {

  private lazy val dblp = SynthGraphs.dblp(spark, n = 1500, bgPairs = 8000)
  private lazy val gD: WGraph = DiffGraph.toWGraph(emerging(dblp), dblp.n) // Weighted Emerging
  private lazy val gDdisc: WGraph = DiffGraph.toWGraph(DiffGraph.discretize(emerging(dblp)), dblp.n)

  test("DBLP Weighted Emerging: DCSGreedy finds UTA-ML with rho = 81.5 (Table IV)") {
    val r = DCSGreedy.run(gD)
    assert(r.s.toSeq == dblp.planted("UTA-ML"), s"got ${r.s.toSeq}")
    assert(math.abs(r.density - 81.5) < 1e-9)
    assert(r.ratio >= 1.0)
  }

  test("DBLP Weighted Emerging: NewSEA finds UTA-ML too (Table IV)") {
    val r = NewSea.run(gD)
    assert(r.best.supportSet.toSeq == dblp.planted("UTA-ML"))
    assert(r.best.f > 20.0 && r.best.f < 24.0, s"f=${r.best.f}") // paper: 23.167
    assert(r.errors == 0)
  }

  test("DBLP Weighted Disappearing: DCSGreedy finds Japan Robotics 1, rho = 143") {
    val r = DCSGreedy.run(gD.negated)
    assert(r.s.toSeq == dblp.planted("Robotics1"), s"got ${r.s.toSeq}")
    assert(math.abs(r.density - 143.0) < 1e-9)
  }

  test("DBLP Weighted Disappearing: NewSEA finds Japan Robotics 2 with f = 50") {
    val r = NewSea.run(gD.negated)
    assert(r.best.supportSet.toSeq == dblp.planted("Robotics2"))
    assert(math.abs(r.best.f - 50.0) < 1e-6)
  }

  test("DBLP Discrete Emerging: both measures find CMU (rho = 12, f = 1.714)") {
    val ad = DCSGreedy.run(gDdisc)
    assert(ad.s.toSeq == dblp.planted("CMU"), s"got ${ad.s.toSeq}")
    assert(math.abs(ad.density - 12.0) < 1e-9)
    val ga = NewSea.run(gDdisc)
    assert(ga.best.supportSet.toSeq == dblp.planted("CMU"))
    assert(math.abs(ga.best.f - 12.0 / 7.0) < 1e-3)
  }

  test("DBLP Discrete Disappearing: Compiler group under avg degree, Robotics 3 under affinity") {
    val ad = DCSGreedy.run(gDdisc.negated)
    assert(ad.s.toSeq == dblp.planted("Compiler"), s"got ${ad.s.toSeq}")
    val ga = NewSea.run(gDdisc.negated)
    assert(ga.best.supportSet.toSeq == dblp.planted("Robotics3"), s"got ${ga.best.supportSet.toSeq}")
    assert(math.abs(ga.best.f - 2.0 * 21 * 2 / 49) < 1e-3) // 7-clique of weight 2: 1.714
  }

  test("all three DCSGA variants find the same DBLP groups (paper: 'all algorithms find the same group')") {
    val smart = NewSea.run(gD)
    val (cdAll, _) = NewSea.allInits(gD, useReplicator = false)
    val (seaAll, _) = NewSea.allInits(gD, useReplicator = true)
    assert(math.abs(smart.best.f - cdAll.best.f) < 1e-6)
    assert(seaAll.best.f >= smart.best.f - 1e-3, "replicator SEA should match here")
    assert(smart.initsUsed < gD.n / 10, s"smart inits ${smart.initsUsed} vs n=${gD.n}")
  }

  test("EgoScan finds a bigger, heavier, less dense subgraph than DCS (Tables VIII/IX)") {
    val dcs = DCSGreedy.run(gD)
    val ego = EgoScan.run(gD)
    assert(ego.s.length > dcs.s.length, s"ego=${ego.s.length} dcs=${dcs.s.length}")
    assert(ego.totalWeight > gD.inducedWeight(dcs.s.toSeq), "EgoScan wins on total weight")
    assert(gD.density(dcs.s.toSeq) > gD.density(ego.s.toSeq), "DCS wins on density")
    assert(!gD.isPositiveClique(ego.s.toSeq))
  }

  test("DM: emerging topic is {social, networks} at f = 0.994 (Table V)") {
    val dm = SynthGraphs.dm(spark, n = 600, bgPairs = 5000)
    val g = DiffGraph.toWGraph(emerging(dm), dm.n)
    val r = NewSea.run(g)
    assert(r.best.supportSet.toSeq.map(dm.label).sorted == Seq("networks", "social"))
    assert(math.abs(r.best.f - 0.994) < 1e-3)
    // disappearing: {mining, association, rules}
    val d = NewSea.run(g.negated)
    assert(d.best.supportSet.toSeq.map(dm.label).sorted == Seq("association", "mining", "rules"),
      s"got ${d.best.supportSet.toSeq.map(dm.label).toSeq}")
    assert(d.best.f > 2.5 && d.best.f < 3.5, s"f=${d.best.f}")
  }

  test("Douban Movie: affinity optima are the planted cliques with Motzkin-Straus values") {
    val mv = SynthGraphs.douban(spark, "Movie", n = 2000)
    val g = DiffGraph.toWGraph(emerging(mv), mv.n)
    val is = NewSea.run(g)
    assert(is.best.supportSet.toSeq == mv.planted("InterestClique"))
    assert(math.abs(is.best.f - (1.0 - 1.0 / 32)) < 1e-3, s"f=${is.best.f}") // 0.969
    val si = NewSea.run(g.negated)
    assert(si.best.supportSet.toSeq == mv.planted("SocialClique"))
    assert(math.abs(si.best.f - (1.0 - 1.0 / 18)) < 1e-3, s"f=${si.best.f}") // 0.944
  }

  test("difference graph via Spark equals local subtraction on DBLP") {
    // spot-check: a planted pair and a background edge
    assert(gD.weight(0, 1) == 46.0)
    assert(gD.weight(18, 19) == -100.0)
    val total = DiffGraph.stats(emerging(dblp), dblp.n)
    assert(total.mPos.toInt + total.mNeg.toInt == gD.numEdges)
    // sum w2 - sum w1 per canonical pair of the raw records, zeros dropped
    val sums = dblp.pairs
      .select(col("src").cast("long"), col("dst").cast("long"), col("w1").cast("double"), col("w2").cast("double"))
      .collect().toSeq
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getDouble(2), r.getDouble(3)))
      .filter { case (u, v, _, _) => u != v }
      .groupMapReduce { case (u, v, _, _) => (u min v, u max v) } { case (_, _, w1, w2) => (w1, w2) } {
        case ((a1, a2), (b1, b2)) => (a1 + b1, a2 + b2)
      }
    val local = WGraph(dblp.n, sums.toSeq.collect { case ((u, v), (s1, s2)) if s2 - s1 != 0.0 => (u, v, s2 - s1) })
    assert(local.offsets.sameElements(gD.offsets))
    assert(local.nbrs.sameElements(gD.nbrs))
    assert(local.wts.sameElements(gD.wts))
  }

  test("DCSAD via distributed peeling candidates matches local DCSGreedy on DBLP positives") {
    val dist = DistPeeling.densest(DiffGraph.positivePart(emerging(dblp)), eps = 0.05)
    val local = Peeling.greedy(gD.positivePart)
    // same planted structure should dominate both
    assert(dist.density >= local.density / 2.1 - 1e-9)
    assert(math.abs(dist.density - local.density) <= 0.25 * local.density,
      s"dist=${dist.density} local=${local.density}")
  }
}
