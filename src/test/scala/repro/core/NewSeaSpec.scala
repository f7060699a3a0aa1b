package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.graph.WGraph

import java.util.concurrent.atomic.{AtomicInteger, DoubleAccumulator}

class NewSeaSpec extends AnyFunSuite {

  test("mu_u is a valid upper bound for cliques through u (Thm 6)") {
    for (seed <- 1 to 15) {
      val g = TestKit.randomPositive(12, 0.5, 3.0, seed)
      val mu = NewSea.smartBounds(g)
      // enumerate all cliques; check optimal f on each clique vs each member's mu
      for (mask <- 1 until (1 << g.n)) {
        val s = (0 until g.n).filter(i => (mask & (1 << i)) != 0)
        if (s.length >= 2 && g.isPositiveClique(s)) {
          val f = TestKit.cliqueOptF(g, s)
          s.foreach(u => assert(mu(u) >= f - 1e-9, s"seed=$seed clique=$s u=$u mu=${mu(u)} f=$f"))
        }
      }
    }
  }

  test("NewSEA matches exhaustive-initialization quality on random graphs") {
    for (seed <- 1 to 15) {
      val g = TestKit.randomPositive(14, 0.4, 2.0, seed)
      val smart = NewSea.run(g)
      val (exhaustive, _) = NewSea.allInits(g, useReplicator = false)
      assert(math.abs(smart.best.f - exhaustive.best.f) < 1e-6,
        s"seed=$seed smart=${smart.best.f} exhaustive=${exhaustive.best.f}")
    }
  }

  test("NewSEA uses far fewer initializations than |V| on structured graphs") {
    // one strong clique + weak noise: the mu ordering finds it immediately
    val clique = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j, 10.0)
    val rnd = new scala.util.Random(8)
    val noise = for {
      i <- 5 until 60; j <- (i + 1) until 60
      if rnd.nextDouble() < 0.1
    } yield (i, j, rnd.nextDouble() * 0.5)
    val g = WGraph(60, clique ++ noise)
    val r = NewSea.run(g)
    assert(r.best.supportSet.toSet == Set(0, 1, 2, 3, 4))
    assert(r.initsUsed <= 6, s"used ${r.initsUsed} inits")
  }

  test("NewSEA finds the brute-force optimum on small graphs") {
    for (seed <- 1 to 12) {
      val g = TestKit.randomPositive(11, 0.45, 2.0, seed)
      val (_, opt) = TestKit.bruteMaxAffinity(g)
      val r = NewSea.run(g)
      assert(math.abs(r.best.f - opt) < 1e-3, s"seed=$seed got=${r.best.f} opt=$opt")
    }
  }

  test("NewSEA always returns a positive clique with zero expansion errors") {
    for (seed <- 1 to 15) {
      val g = TestKit.randomPositive(13, 0.4, 2.0, seed)
      val r = NewSea.run(g)
      assert(g.isPositiveClique(r.best.supportSet.toSeq), s"seed=$seed")
      assert(r.errors == 0)
    }
  }

  test("empty graph: NewSEA returns the trivial solution") {
    val g = WGraph(4, Seq.empty)
    val r = NewSea.run(g)
    assert(r.best.f == 0.0)
  }

  test("dropSubsetCliques removes sub-cliques and sorts by f") {
    def res(s: Seq[Int], f: Double) = AffinityResult(s.map(u => (u, 1.0 / s.length)).toArray, f)
    val out = NewSea.dropSubsetCliques(Seq(
      res(Seq(1, 2), 0.5), res(Seq(1, 2, 3), 0.7), res(Seq(4, 5), 0.9), res(Seq(6), 0.0),
      res(Seq(4, 5), 1.5), res(Seq.empty, 0.0),
    ))
    assert(out.map(_.supportSet.toSeq) == Seq(Seq(4, 5), Seq(1, 2, 3), Seq(6)))
    // a repeated support keeps its first occurrence
    assert(out.map(_.f) == Seq(0.9, 0.7, 0.0))
    // an empty support is dropped even when nothing contains it
    assert(NewSea.dropSubsetCliques(Seq(res(Seq.empty, 0.0))).isEmpty)
  }

  test("allInits collects the planted cliques (Table V machinery)") {
    val c1 = for (i <- 0 until 3; j <- (i + 1) until 3) yield (i, j, 4.0)
    val c2 = for (i <- 3 until 6; j <- (i + 1) until 6) yield (i, j, 2.0)
    val g = WGraph(8, c1 ++ c2 :+ (6, 7, 1.0))
    val (best, cliques) = NewSea.allInits(g, useReplicator = false)
    assert(math.abs(best.best.f - 8.0 / 3) < 1e-4)
    val sets = cliques.map(_.supportSet.toSet)
    assert(sets.contains(Set(0, 1, 2)))
    assert(sets.contains(Set(3, 4, 5)))
    assert(sets.contains(Set(6, 7)))
    // sorted by descending affinity
    assert(cliques.map(-_.f) == cliques.map(-_.f).sorted)
  }

  /** `NewSea.run` and `allInits` rebuilt on the sequential reference loop. */
  private def sequentialRun(g: WGraph): NewSea.MultiResult = {
    val mu = NewSea.smartBounds(g)
    TestKit.sequentialSeedLoop(g, (0 until g.n).toArray.sortBy(u => -mu(u)), mu, useReplicator = false)(_ => ())
  }

  private def sequentialAllInits(g: WGraph, useReplicator: Boolean): (NewSea.MultiResult, Seq[AffinityResult]) = {
    val cliques = scala.collection.mutable.LinkedHashMap.empty[Seq[Int], AffinityResult]
    val noBound = Array.fill(g.n)(Double.PositiveInfinity)
    val best = TestKit.sequentialSeedLoop(g, Array.range(0, g.n), noBound, useReplicator) { r =>
      val key = r.supportSet.toSeq
      if (key.nonEmpty && !cliques.contains(key)) cliques(key) = r
    }
    (best, NewSea.dropSubsetCliques(cliques.values.toSeq))
  }

  private def sameResult(a: AffinityResult, b: AffinityResult): Boolean =
    a.embedding.sameElements(b.embedding) && a.f == b.f

  private def assertSame(got: NewSea.MultiResult, want: NewSea.MultiResult, what: String): Unit = {
    assert(sameResult(got.best, want.best), s"$what: best ${got.best} vs ${want.best}")
    assert(got.initsUsed == want.initsUsed, s"$what: initsUsed ${got.initsUsed} vs ${want.initsUsed}")
    assert(got.errors == want.errors, s"$what: errors ${got.errors} vs ${want.errors}")
  }

  /** Positive part of a dense graph with +-1 weights and planted +1 cliques:
    * `mu_u = tau_u/(tau_u+1)` rarely prunes there, so most seeds run and
    * many cliques tie in `f`.
    */
  private def plantedPlusMinusOne(n: Int, seed: Long): WGraph = {
    val rnd = new scala.util.Random(seed)
    val w = scala.collection.mutable.Map.empty[(Int, Int), Double]
    for (i <- 0 until n; j <- (i + 1) until n if rnd.nextDouble() < 0.5) w((i, j)) = if (rnd.nextBoolean()) 1.0 else -1.0
    for (_ <- 1 to 3) {
      val c = rnd.shuffle((0 until n).toList).take(5 + rnd.nextInt(3)).sorted
      for (a <- c; b <- c if a < b) w((a, b)) = 1.0
    }
    WGraph(n, w.toSeq.map { case ((i, j), x) => (i, j, x) }).positivePart
  }

  /** Unit-weight `K_{4,4}` followed by 40 disjoint triangles. A triangle's
    * refined `f` reaches its bound `mu = 2/3` in floating point, so any
    * triangle seed can stop the loop at the first one: the only case where
    * a later seed's result could wrongly stop an earlier seed.
    */
  private val bipartiteThenTriangles: WGraph = {
    val bip = for (i <- 0 until 4; j <- 4 until 8) yield (i, j, 1.0)
    val tris = for (c <- 0 until 40; a <- 0 until 3; b <- (a + 1) until 3) yield (8 + 3 * c + a, 8 + 3 * c + b, 1.0)
    WGraph(8 + 3 * 40, bip ++ tris)
  }

  test("the parallel seed loop gives exactly the sequential loop's results") {
    val graphs = (1 to 4).map(s => s"positive $s" -> TestKit.randomPositive(40, 0.3, 2.0, s)) ++
      (1 to 4).map(s => s"planted +-1 $s" -> plantedPlusMinusOne(60, s)) ++
      Seq("K44 then triangles" -> bipartiteThenTriangles,
        "disjoint edges" -> WGraph(100, (0 until 50).map(i => (2 * i, 2 * i + 1, 1.0))))
    for ((name, g) <- graphs) {
      val run = sequentialRun(g)
      val all = Seq(false, true).map(r => r -> sequentialAllInits(g, r))
      for (rep <- 1 to 10) {
        assertSame(NewSea.run(g), run, s"$name run #$rep")
        for ((useReplicator, (wantBest, wantCliques)) <- all) {
          val what = s"$name allInits($useReplicator) #$rep"
          val (best, cliques) = NewSea.allInits(g, useReplicator)
          assertSame(best, wantBest, what)
          assert(cliques.length == wantCliques.length, s"$what: ${cliques.length} vs ${wantCliques.length} cliques")
          assert(cliques.zip(wantCliques).forall { case (a, b) => sameResult(a, b) }, s"$what: clique list differs")
        }
      }
    }
  }

  test("dense +-1 graph with a planted 18-clique: NewSEA finds it, as allInits and the sequential loop do") {
    // G(650, 0.42) with +-1 weights, as tiny Douban's background: mu_u = tau_u/(tau_u+1) is
    // near 1 for almost every vertex, so the bound prunes little and most seeds run
    val n = 650
    val clique = new scala.util.Random(18).shuffle((0 until n).toList).take(18)
    val g = TestKit.withPlantedClique(TestKit.randomDiscrete(n, 0.42, 0.5, 650), clique).positivePart
    val r = NewSea.run(g)
    info(s"NewSEA ran ${r.initsUsed} of $n seeds")
    assert(math.abs(r.best.f - 17.0 / 18) < 1e-9, s"f = ${r.best.f}") // Motzkin-Straus: 1 - 1/18
    assert(r.best.supportSet.toSet == clique.toSet)
    val (all, _) = NewSea.allInits(g, useReplicator = false)
    assert(r.best.f == all.best.f)
    assert(r.initsUsed == sequentialRun(g).initsUsed)
  }

  test("a worker reads the incumbent before it claims a seed") {
    val g = bipartiteThenTriangles
    val mu = NewSea.smartBounds(g)
    val order = (0 until g.n).toArray.sortBy(u => -mu(u))
    // the eight K44 seeds have run: the incumbent is 1/2, the next seed is the first triangle
    val incumbent = new DoubleAccumulator((a, b) => math.max(a, b), 0.5)
    val other = new AffinityState(g)
    // right after this worker takes seed 8, another worker takes seed 9, runs
    // it and raises the incumbent to seed 8's bound or above
    val next = new AtomicInteger(8)
    val take = () => {
      val k = next.getAndIncrement()
      val later = next.getAndIncrement()
      other.initAt(order(later))
      Seacd.run(other)
      incumbent.accumulate(Refinement.run(other).f)
      k
    }
    assert(NewSea.claim(take, incumbent, order, mu) == 8)
    assert(incumbent.get >= mu(order(8)), "the other worker's f reaches seed 8's bound")
  }

  test("an error in a seed-loop worker reaches the caller") {
    val g = TestKit.randomPositive(40, 0.3, 2.0, 1)
    val badSeeds = Array.fill(64)(g.n)
    intercept[IndexOutOfBoundsException] {
      NewSea.seedLoop(g, badSeeds, Array.fill(g.n + 1)(Double.PositiveInfinity), useReplicator = false)
    }
  }
}
