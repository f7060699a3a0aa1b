package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.graph.WGraph

class ReplicatorSeaSpec extends AnyFunSuite {

  test("replicator shrink preserves the simplex and does not decrease f") {
    for (seed <- 1 to 15) {
      val g = TestKit.randomPositive(10, 0.5, 2.0, seed)
      val st = new AffinityState(g)
      (0 until 5).foreach(u => st.setX(u, 0.2))
      val f0 = st.f
      ReplicatorSea.replicatorShrink(st)
      assert(st.f >= f0 - 1e-9, s"seed=$seed")
      assert(math.abs(st.mass - 1.0) < 1e-6, s"seed=$seed mass=${st.mass}")
    }
  }

  test("replicator fixed point on an equal triangle is the uniform point") {
    val g = WGraph(3, Seq((0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0)))
    val st = new AffinityState(g)
    st.setX(0, 0.5); st.setX(1, 0.3); st.setX(2, 0.2)
    ReplicatorSea.replicatorShrink(st, shrinkTol = 1e-14)
    assert(math.abs(st.f - 4.0 / 3) < 1e-3)
  }

  test("a shrink that never meets its tolerance fails at MaxShrinkIter") {
    // the improvement is never <= -1, so only the cap ends the loop
    val g = WGraph(3, Seq((0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0)))
    val st = new AffinityState(g)
    st.setX(0, 0.5); st.setX(1, 0.3); st.setX(2, 0.2)
    val e = intercept[IllegalStateException] { ReplicatorSea.replicatorShrink(st, shrinkTol = -1.0) }
    assert(e.getMessage.contains("MaxShrinkIter = 100000") && e.getMessage.contains("support of 3 vertices"))
  }

  test("zero-objective support stalls gracefully (isolated seed)") {
    val g = WGraph(3, Seq((1, 2, 1.0)))
    val st = new AffinityState(g)
    st.initAt(0)
    val iters = ReplicatorSea.replicatorShrink(st)
    assert(iters == 0)
    assert(st.f == 0.0)
  }

  test("full SEA run returns a valid embedding on positive graphs") {
    for (seed <- 1 to 10) {
      val g = TestKit.randomPositive(12, 0.5, 2.0, seed)
      val st = new AffinityState(g)
      st.initAt(seed % 12)
      ReplicatorSea.run(st)
      assert(st.result.f >= 0.0)
      assert(math.abs(st.mass - 1.0) < 1e-6)
    }
  }

  test("loose shrink convergence can leave a non-KKT point (the paper's SEA flaw)") {
    // The replicator's per-iteration improvement shrinks long before the KKT
    // gap closes on graphs with near-ties; verify the mechanism exists by
    // checking that the loose criterion stops earlier than the strict one.
    val g = TestKit.randomPositive(20, 0.6, 1.0, 4)
    val st1 = new AffinityState(g)
    (0 until 20).foreach(u => st1.setX(u, 0.05))
    val itLoose = ReplicatorSea.replicatorShrink(st1, shrinkTol = 1e-3)
    val st2 = new AffinityState(g)
    (0 until 20).foreach(u => st2.setX(u, 0.05))
    val itStrict = ReplicatorSea.replicatorShrink(st2, shrinkTol = 1e-12)
    assert(itLoose < itStrict)
  }

  test("SEA with refinement still produces positive cliques") {
    for (seed <- 1 to 10) {
      val g = TestKit.randomPositive(12, 0.4, 2.0, seed)
      val st = new AffinityState(g)
      st.initAt(seed % 12)
      ReplicatorSea.run(st)
      val r = Refinement.run(st)
      assert(g.isPositiveClique(r.supportSet.toSeq), s"seed=$seed")
    }
  }
}
