package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.graph.WGraph

class SeacdSpec extends AnyFunSuite {

  test("expansion grows a unit vector into its positive neighborhood") {
    val g = WGraph(3, Seq((0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0)))
    val st = new AffinityState(g)
    st.initAt(0)
    val t = Seacd.run(st)
    assert(math.abs(st.result.f - 4.0 / 3.0) < 1e-4) // 2w/3
    assert(st.result.supportSet.toSet == Set(0, 1, 2))
    assert(t.expansionErrors == 0)
  }

  test("SEACD reaches a global KKT point (Eq. 7)") {
    for (seed <- 1 to 20) {
      val g = TestKit.randomPositive(12, 0.4, 2.0, seed)
      val st = new AffinityState(g)
      st.initAt(seed % 12)
      Seacd.run(st)
      val x = st.support.map(u => u -> st.x(u)).toMap
      // the shrink stage stops at the paper's precision eps = 1e-2/|S|
      assert(TestKit.kktViolation(g, x) <= CoordinateDescent.epsFor(x.size) + 1e-9, s"seed=$seed x=$x")
    }
  }

  test("SEACD never makes expansion errors (coordinate-descent shrink reaches local KKT)") {
    var totalErrors = 0
    for (seed <- 1 to 30) {
      val g = TestKit.randomPositive(15, 0.5, 3.0, seed)
      val st = new AffinityState(g)
      for (u <- 0 until g.n) {
        st.initAt(u)
        totalErrors += Seacd.run(st).expansionErrors
      }
    }
    assert(totalErrors == 0)
  }

  test("at a KKT point lambda/2 = f (Eq. 7 consequence)") {
    for (seed <- 1 to 10) {
      val g = TestKit.randomPositive(10, 0.5, 2.0, seed)
      val st = new AffinityState(g)
      st.initAt(0)
      Seacd.run(st)
      // every support vertex's (Dx)_u equals f (within tolerance)
      st.support.foreach { u =>
        assert(math.abs(st.dx(u) - st.f) < 1e-2, s"seed=$seed u=$u dx=${st.dx(u)} f=${st.f}")
      }
    }
  }

  test("isolated seed stays put with f = 0") {
    val g = WGraph(3, Seq((0, 1, 1.0)))
    val st = new AffinityState(g)
    st.initAt(2)
    Seacd.run(st)
    assert(st.result.f == 0.0)
    assert(st.result.supportSet.toSeq == Seq(2))
  }

  test("on a signed graph SEACD works directly (replicator cannot)") {
    for (seed <- 1 to 10) {
      val g = TestKit.randomSigned(12, 0.5, 2.0, seed)
      val st = new AffinityState(g)
      st.initAt(seed % 12)
      Seacd.run(st)
      assert(st.result.f >= -1e-12, s"seed=$seed f=${st.result.f}")
      val x = st.support.map(u => u -> st.x(u)).toMap
      assert(TestKit.kktViolation(g, x) <= CoordinateDescent.epsFor(x.size) + 1e-9, s"seed=$seed")
    }
  }

  test("best-of-all-inits reaches the brute-force DCSGA optimum on small graphs") {
    for (seed <- 1 to 12) {
      val g = TestKit.randomPositive(10, 0.45, 2.0, seed)
      val (_, opt) = TestKit.bruteMaxAffinity(g)
      val st = new AffinityState(g)
      var best = 0.0
      for (u <- 0 until g.n) {
        st.initAt(u)
        Seacd.run(st)
        val r = Refinement.run(st)
        best = math.max(best, r.f)
      }
      assert(best >= opt - 1e-3, s"seed=$seed best=$best opt=$opt")
      assert(best <= opt + 1e-3, s"seed=$seed best=$best opt=$opt (cannot exceed optimum)")
    }
  }
}
