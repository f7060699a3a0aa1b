package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit

class WGraphSpec extends AnyFunSuite {

  private val triangle = WGraph(3, Seq((0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)))
  private val signed = WGraph(5, Seq((0, 1, 2.0), (1, 2, -1.0), (3, 4, 4.0)))

  test("numEdges counts undirected edges once") {
    assert(triangle.numEdges == 3)
    assert(signed.numEdges == 3)
  }

  test("zero-weight edges are dropped at construction") {
    val g = WGraph(3, Seq((0, 1, 0.0), (1, 2, 5.0)))
    assert(g.numEdges == 1)
    assert(g.weight(0, 1) == 0.0)
  }

  test("self loops are rejected") {
    for (w <- Seq(1.0, 0.0)) {
      val e = intercept[IllegalArgumentException] { WGraph(2, Seq((1, 1, w))) }
      assert(e.getMessage.contains("self loop at 1"), e.getMessage)
    }
  }

  test("duplicate pairs are rejected in either orientation") {
    for (dup <- Seq((0, 1, 2.0), (1, 0, 2.0))) {
      val e = intercept[IllegalArgumentException] { WGraph(3, Seq((0, 1, 1.0), (1, 2, 1.0), dup)) }
      assert(e.getMessage.contains("duplicate edge (0, 1)"), e.getMessage)
    }
  }

  test("NaN and infinite weights are rejected, naming the pair") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException] { WGraph(4, Seq((0, 1, 1.0), (2, 3, bad))) }
      assert(e.getMessage.contains(s"weight $bad of (2, 3) is not finite"), e.getMessage)
    }
  }

  test("vertex ids outside [0, n) are rejected, naming the id") {
    for (bad <- Seq(4, -1); w <- Seq(1.0, 0.0); edge <- Seq((bad, 1, w), (1, bad, w))) {
      val e = intercept[IllegalArgumentException] { WGraph(4, Seq((0, 1, 1.0), edge)) }
      assert(e.getMessage.contains(s"vertex id $bad outside [0, 4)"), e.getMessage)
    }
  }

  test("weight is symmetric and 0 for absent edges") {
    assert(triangle.weight(0, 1) == 1.0)
    assert(triangle.weight(1, 0) == 1.0)
    assert(signed.weight(1, 2) == -1.0)
    assert(signed.weight(0, 4) == 0.0)
    assert(signed.weight(0, 0) == 0.0)
  }

  test("weightedDegree sums incident weights including negatives") {
    assert(signed.weightedDegree(1) == 1.0) // 2.0 + (-1.0)
    assert(signed.weightedDegree(0) == 2.0)
    assert(signed.weightedDegree(2) == -1.0)
  }

  test("degreeCount is the neighbor count") {
    assert(triangle.degreeCount(0) == 2)
    assert(signed.degreeCount(3) == 1)
  }

  test("totalWeight counts both orientations (paper convention)") {
    assert(triangle.totalWeight == 12.0) // 2 * (1 + 2 + 3)
    assert(signed.totalWeight == 10.0) // 2 * (2 - 1 + 4)
  }

  test("inducedWeight and density follow the both-orientations convention") {
    assert(triangle.inducedWeight(Seq(0, 1, 2)) == 12.0)
    assert(triangle.density(Seq(0, 1, 2)) == 4.0)
    assert(triangle.inducedWeight(Seq(0, 1)) == 2.0)
    assert(triangle.density(Seq(0, 1)) == 1.0)
    assert(triangle.density(Seq(0)) == 0.0)
  }

  test("a unit-weight k-clique has density k-1 (used by Thm 1)") {
    for (k <- 2 to 6) {
      val edges = for (i <- 0 until k; j <- (i + 1) until k) yield (i, j, 1.0)
      val g = WGraph(k, edges)
      assert(math.abs(g.density(0 until k) - (k - 1)) < 1e-12)
    }
  }

  test("edgeDensity is W(S)/|S|^2") {
    assert(triangle.edgeDensity(Seq(0, 1, 2)) == 12.0 / 9.0)
  }

  test("isPositiveClique requires all pairs present with positive weight") {
    assert(triangle.isPositiveClique(Seq(0, 1, 2)))
    assert(triangle.isPositiveClique(Seq(0, 1)))
    assert(triangle.isPositiveClique(Seq(2)))
    assert(!signed.isPositiveClique(Seq(1, 2))) // negative weight
    assert(!signed.isPositiveClique(Seq(0, 2))) // no edge
    assert(signed.isPositiveClique(Seq(3, 4)))
  }

  test("componentsOf splits induced subgraphs correctly") {
    val comps = signed.componentsOf(Seq(0, 1, 2, 3, 4)).map(_.toSet)
    assert(comps.toSet == Set(Set(0, 1, 2), Set(3, 4)))
    val sub = signed.componentsOf(Seq(0, 2, 3)).map(_.toSet)
    assert(sub.toSet == Set(Set(0), Set(2), Set(3)))
  }

  test("positivePart keeps exactly the positive edges") {
    val p = signed.positivePart
    assert(p.numEdges == 2)
    assert(p.weight(0, 1) == 2.0 && p.weight(3, 4) == 4.0)
    assert(p.weight(1, 2) == 0.0)
    assert(signed.positivePart eq p, "G_{D+} is built once per graph")
  }

  test("positivePart is the CSR that fromEdges builds from the positive edges") {
    val graphs = (1 to 20).map(seed => TestKit.randomSigned(12 + seed, 0.3, 3.0, seed)) ++
      Seq(TestKit.randomPositive(10, 0.5, 2.0, 5).negated, WGraph(0, Seq.empty))
    for (g <- graphs) {
      val pos = for (u <- 0 until g.n; k <- g.offsets(u) until g.offsets(u + 1)
                     if g.nbrs(k) > u && g.wts(k) > 0.0) yield (u, g.nbrs(k), g.wts(k))
      val (p, ref) = (g.positivePart, WGraph(g.n, pos))
      assert(p.n == ref.n)
      assert(p.offsets.sameElements(ref.offsets), s"n=${g.n}")
      assert(p.nbrs.sameElements(ref.nbrs), s"n=${g.n}")
      assert(p.wts.sameElements(ref.wts), s"n=${g.n}")
    }
    assert(graphs.exists(_.positivePart.numEdges > 0) && graphs.exists(_.positivePart.numEdges == 0))
  }

  test("negated flips every weight") {
    val neg = signed.negated
    assert(neg.weight(1, 2) == 1.0)
    assert(neg.weight(0, 1) == -2.0)
    assert(neg.numEdges == signed.numEdges)
  }

  test("coreNumbers: clique plus pendant") {
    // 4-clique {0..3} with pendant 4 attached to 0
    val edges = (for (i <- 0 until 4; j <- (i + 1) until 4) yield (i, j, 1.0)) :+ (0, 4, 1.0)
    val g = WGraph(5, edges)
    val core = g.coreNumbers
    assert((0 until 4).forall(core(_) == 3))
    assert(core(4) == 1)
  }

  test("coreNumbers: path graph is 1-core, isolated vertex 0-core") {
    val g = WGraph(5, Seq((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    val core = g.coreNumbers
    assert(core.take(4).forall(_ == 1))
    assert(core(4) == 0)
  }

  test("coreNumbers matches brute-force iterative deletion on random graphs") {
    for (seed <- 1 to 10) {
      val g = TestKit.randomPositive(14, 0.35, 2.0, seed)
      val core = g.coreNumbers
      // brute force: core number = max k s.t. u survives k-peel
      def peel(k: Int): Set[Int] = {
        var alive = (0 until g.n).toSet
        var changed = true
        while (changed) {
          val kill = alive.filter(u => {
            var d = 0
            g.foreachNbr(u)((v, _) => if (alive(v)) d += 1)
            d < k
          })
          changed = kill.nonEmpty
          alive --= kill
        }
        alive
      }
      for (u <- 0 until g.n) {
        val expected = (0 to g.n).filter(k => peel(k)(u)).max
        assert(core(u) == expected, s"seed=$seed u=$u")
      }
    }
  }

  test("maxIncidentWeight and egoNetMaxWeight") {
    val g = WGraph(4, Seq((0, 1, 5.0), (1, 2, 7.0), (2, 3, 1.0)))
    assert(g.maxIncidentWeight.toSeq == Seq(5.0, 7.0, 7.0, 1.0))
    // ego net of 0 = {0,1}; edges incident to {0,1}: (0,1)=5, (1,2)=7
    assert(g.egoNetMaxWeight(0) == 7.0)
    assert(g.egoNetMaxWeight(3) == 7.0)
  }

  test("adjacency segments are sorted (binary search precondition)") {
    val g = TestKit.randomSigned(30, 0.3, 5.0, 99)
    for (u <- 0 until g.n) {
      val seg = g.nbrs.slice(g.offsets(u), g.offsets(u + 1))
      assert(seg.sameElements(seg.sorted), s"u=$u")
    }
  }

  test("fromEdges round-trips weights on random graphs") {
    for (seed <- 1 to 5) {
      val rnd = new scala.util.Random(seed)
      val edges = (for (i <- 0 until 12; j <- (i + 1) until 12 if rnd.nextBoolean())
        yield (i, j, rnd.nextDouble() * 4 - 2)).filter(_._3 != 0.0)
      val g = WGraph(12, edges)
      for ((u, v, w) <- edges) {
        assert(g.weight(u, v) == w)
        assert(g.weight(v, u) == w)
      }
      assert(g.numEdges == edges.length)
    }
  }
}
