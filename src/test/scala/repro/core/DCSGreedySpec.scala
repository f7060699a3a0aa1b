package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.core.DCSGreedy.{MaxEdge, PeelGD, PeelGDPlus, SingleVertex}
import repro.graph.WGraph

import scala.collection.mutable

class DCSGreedySpec extends AnyFunSuite {

  test("no positive edges: single vertex, density 0, ratio 1") {
    val g = WGraph(3, Seq((0, 1, -2.0), (1, 2, -3.0)))
    val r = DCSGreedy.run(g)
    assert(r.s.length == 1)
    assert(r.density == 0.0)
    assert(r.ratio == 1.0)
    assert(r.winner == SingleVertex && !r.split)
  }

  test("single positive edge graph") {
    val g = WGraph(4, Seq((0, 1, 5.0), (2, 3, -1.0)))
    val r = DCSGreedy.run(g)
    assert(r.s.toSet == Set(0, 1))
    assert(r.density == 5.0)
  }

  test("returned subgraph is connected in G_D (Property 1)") {
    for (seed <- 1 to 25) {
      val g = TestKit.randomSigned(14, 0.3, 3.0, seed)
      val r = DCSGreedy.run(g)
      assert(g.componentsOf(r.s.toSeq).size == 1, s"seed=$seed S=${r.s.toSeq}")
    }
  }

  test("density reported matches the returned set and ratio >= 1") {
    for (seed <- 1 to 25) {
      val g = TestKit.randomSigned(14, 0.4, 3.0, seed)
      val r = DCSGreedy.run(g)
      if (r.density > 0) {
        assert(math.abs(g.density(r.s.toSeq) - r.density) < 1e-9, s"seed=$seed")
        assert(r.ratio >= 1.0 - 1e-9, s"seed=$seed ratio=${r.ratio}")
      }
    }
  }

  test("data-dependent ratio bounds the true optimum (Thm 2)") {
    for (seed <- 1 to 25) {
      val g = TestKit.randomSigned(13, 0.4, 3.0, seed)
      val r = DCSGreedy.run(g)
      val (_, opt) = TestKit.bruteDensest(g)
      if (opt > 0) {
        assert(r.density * r.ratio >= opt - 1e-9, s"seed=$seed claim=${r.density * r.ratio} opt=$opt")
        assert(r.density <= opt + 1e-9)
      }
    }
  }

  test("line 7 keeps the first of equally dense candidates") {
    // one positive edge: all three candidates are {0, 1} with rho = 3
    val edge = DCSGreedy.run(WGraph(2, Seq((0, 1, 3.0))))
    assert(edge.winner == MaxEdge && !edge.split)
    assert(edge.s.toSeq == Seq(0, 1) && edge.density == 3.0)
    // a positive triangle (rho = 4) plus an isolated vertex: MaxEdge has
    // rho = 2, and both peels stop at the triangle, so Greedy(G_D) wins
    val tri = DCSGreedy.run(WGraph(4, Seq((0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0))))
    assert(tri.winner == PeelGD && !tri.split)
    assert(tri.s.toSeq == Seq(0, 1, 2) && tri.density == 4.0)
  }

  test("heaviest-edge candidate rescues adversarial instances") {
    // dense mildly-positive blob vs one very heavy isolated edge
    val blob = for (i <- 0 until 8; j <- (i + 1) until 8) yield (i, j, 0.1)
    val g = WGraph(10, blob :+ (8, 9, 100.0))
    val r = DCSGreedy.run(g)
    assert(r.s.toSet == Set(8, 9))
    assert(r.density == 100.0)
    assert(r.winner == MaxEdge && !r.split)
  }

  test("planted contrast clique is recovered exactly") {
    // 5-clique of weight 4 (rho = 16) inside noise of weight +-1
    val clique = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j, 4.0)
    val rnd = new scala.util.Random(3)
    val noise = for {
      i <- 0 until 30; j <- (i + 1) until 30
      if !(i < 5 && j < 5) && rnd.nextDouble() < 0.1
    } yield (i, j, if (rnd.nextBoolean()) 1.0 else -1.0)
    val g = WGraph(30, clique ++ noise)
    val r = DCSGreedy.run(g)
    assert(r.s.toSet == Set(0, 1, 2, 3, 4), s"got ${r.s.toSeq}")
    assert(math.abs(r.density - 16.0) < 1e-9)
  }

  test("the disconnected-winner case picks its densest component") {
    // an edge {0,1} of weight 25, and a K4 on {2,3,4,5} of weight 10 with a
    // pendant edge (5,6) of weight 21: the peel keeps all 7 vertices
    // (rho = 212/7 ~ 30.29), and lines 8-9 pick the denser second component
    // (rho = 162/5 = 32.4) over the edge (rho = 25)
    val k4 = for (i <- 2 until 6; j <- (i + 1) until 6) yield (i, j, 10.0)
    val g = WGraph(7, (0, 1, 25.0) +: k4 :+ ((5, 6, 21.0)))
    val r = DCSGreedy.run(g)
    assert(r.winner == PeelGD && r.split)
    assert(g.componentsOf(r.s.toSeq).size == 1)
    assert(r.s.toSeq == Seq(2, 3, 4, 5, 6))
    assert(r.density == 32.4)
  }

  test("two equally dense components: the peel keeps both and the split picks the first") {
    val g = WGraph(6, Seq((0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0), (3, 4, 2.0), (4, 5, 2.0), (3, 5, 2.0)))
    val r = DCSGreedy.run(g)
    assert(r.winner == PeelGD && r.split)
    assert(r.s.toSeq == Seq(0, 1, 2))
    assert(r.density == 4.0)
  }

  test("the result names the candidate that won line 7 and whether lines 8-9 split it") {
    val seen = mutable.Set.empty[DCSGreedy.Candidate]
    for (seed <- 1 to 60; g <- Seq(TestKit.randomSigned(14, 0.3, 3.0, seed), TestKit.randomDiscrete(14, 0.3, 0.5, seed))) {
      val r = DCSGreedy.run(g)
      val (hu, hv) = (for (u <- 0 until g.n; v <- (u + 1) until g.n) yield (u, v)).maxBy { case (u, v) => g.weight(u, v) }
      val cands = Seq[(DCSGreedy.Candidate, Seq[Int])](
        MaxEdge -> Seq(hu, hv),
        PeelGD -> Peeling.greedy(g).best.toSeq,
        PeelGDPlus -> Peeling.greedy(g.positivePart).best.toSeq)
      val (want, set) = cands.tail.foldLeft(cands.head)((b, c) => if (g.density(c._2) > g.density(b._2)) c else b)
      val comps = g.componentsOf(set)
      assert(r.winner == want, s"seed=$seed")
      assert(r.split == (comps.size > 1), s"seed=$seed")
      if (r.split) assert(comps.exists(_.sorted.sameElements(r.s)), s"seed=$seed")
      else assert(r.s.sameElements(set.sorted), s"seed=$seed")
      seen += r.winner
    }
    assert(seen == Set(MaxEdge, PeelGD, PeelGDPlus), s"winners seen: $seen")
  }
}
