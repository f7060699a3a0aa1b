package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.graph.WGraph

/** Tests the faithful reproduction of the original SEA's expansion-error
  * mechanism (Section V-C / Table VII of the paper): when the shrink stage
  * stops short of a local KKT point, support vertices satisfy
  * `(Dx)_u > f` and leak into the original's `Z`, breaking the step
  * derivation; the corrected candidate rule (off-support only) keeps the
  * step exact at *any* point.
  */
class OriginalSeaErrorSpec extends AnyFunSuite {

  test("candidatesOriginal includes support vertices at a non-KKT point; candidates does not") {
    // path a-b-c with unequal weights; x concentrated off-balance
    val g = WGraph(3, Seq((0, 1, 2.0), (1, 2, 1.0)))
    val st = new AffinityState(g)
    st.setX(0, 0.6); st.setX(1, 0.3); st.setX(2, 0.1)
    // f = 2*(0.6*0.3*2 + 0.3*0.1*1) = 0.78; (Dx)_0 = 0.6 ; (Dx)_1 = 1.3 > f
    val orig = ReplicatorSea.candidatesOriginal(st, 1e-9).toSet
    val corrected = Expansion.candidates(st, 1e-9).toSet
    assert(orig.contains(1), "support vertex with high gradient leaks into the original Z")
    assert(!corrected.contains(1))
    assert(corrected.subsetOf(orig))
  }

  test("at a genuine local KKT point the two candidate rules coincide") {
    for (seed <- 1 to 10) {
      val g = TestKit.randomPositive(10, 0.5, 2.0, seed)
      val st = new AffinityState(g)
      st.initAt(seed % 10)
      Seacd.run(st) // local KKT up to the shrink precision eps = 1e-2/|S|
      // above that precision no support vertex can exceed f, so the rules agree
      val tol = CoordinateDescent.epsFor(st.supportSize)
      assert(ReplicatorSea.candidatesOriginal(st, tol).toSet == Expansion.candidates(st, tol).toSet,
        s"seed=$seed")
    }
  }

  test("corrected expansion step is exact even at non-KKT points (identity, not KKT, drives Delta f)") {
    for (seed <- 1 to 15) {
      val g = TestKit.randomPositive(12, 0.5, 2.0, seed)
      val st = new AffinityState(g)
      // an arbitrary point, deliberately not shrunk to KKT
      val rnd = new scala.util.Random(seed)
      val ids = rnd.shuffle((0 until 12).toList).take(4)
      ids.foreach(u => st.setX(u, 0.25))
      val z = Expansion.candidates(st, 1e-9)
      if (z.nonEmpty) {
        val before = st.f
        val after = Expansion.expand(st, z)
        assert(after >= before - 1e-9, s"seed=$seed: corrected step must never decrease f")
      }
    }
  }

  test("replicator SEA accumulates errors on dense near-uniform graphs, SEACD never") {
    val rnd = new scala.util.Random(3)
    val edges = for {
      i <- 0 until 60; j <- (i + 1) until 60
      if rnd.nextDouble() < 0.5
    } yield (i, j, 1.0 + rnd.nextDouble() * 0.2)
    val g = WGraph(60, edges)
    val (seaRes, _) = NewSea.allInits(g, useReplicator = true)
    val (cdRes, _) = NewSea.allInits(g, useReplicator = false)
    assert(seaRes.errors > 0, "loose-convergence replicator should err here")
    assert(cdRes.errors == 0)
    assert(seaRes.best.f <= cdRes.best.f + 1e-6)
  }

  test("an erroneous expansion terminates the seed instead of cycling") {
    val rnd = new scala.util.Random(7)
    val edges = for {
      i <- 0 until 40; j <- (i + 1) until 40
      if rnd.nextDouble() < 0.6
    } yield (i, j, 1.0 + rnd.nextDouble() * 0.1)
    val g = WGraph(40, edges)
    val st = new AffinityState(g)
    st.initAt(0)
    val t = ReplicatorSea.run(st)
    assert(t.seaIterations < 200, "must not hit the outer cap by cycling")
  }
}
