package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.graph.WGraph

class RefinementSpec extends AnyFunSuite {

  test("refinement of a two-component KKT point yields a clique without losing f") {
    // two disjoint triangles of different weights; a KKT point spread over
    // both is worse than either alone (Property 2)
    val t1 = Seq((0, 1, 3.0), (1, 2, 3.0), (0, 2, 3.0))
    val t2 = Seq((3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0))
    val g = WGraph(6, t1 ++ t2)
    val st = new AffinityState(g)
    (0 until 6).foreach(u => st.setX(u, 1.0 / 6))
    CoordinateDescent.descend(st, (0 until 6).toArray, 1e-9)
    val fKkt = st.f
    val r = Refinement.run(st)
    assert(r.f >= fKkt - 1e-9)
    assert(g.isPositiveClique(r.supportSet.toSeq))
  }

  test("returned support is always a positive clique (Thm 5)") {
    // states on G_{D+}, plus one on a signed G_D whose SEACD support holds
    // a pair joined by a negative edge
    val positive = (1 to 25).map(seed => (s"seed=$seed", TestKit.randomPositive(14, 0.35, 2.0, seed).positivePart, seed % 14))
    val inputs = positive :+ (("signed", TestKit.randomDiscrete(12, 0.6, 0.6, 5), 2))
    for ((what, g, u) <- inputs) {
      val st = new AffinityState(g)
      st.initAt(u)
      Seacd.run(st)
      val before = st.f
      val r = Refinement.run(st)
      assert(g.isPositiveClique(r.supportSet.toSeq), s"$what support=${r.supportSet.toSeq}")
      assert(r.f >= before - 1e-9, s"$what refinement must not decrease f")
    }
  }

  test("refining an already-clique support is a no-op") {
    val g = WGraph(3, Seq((0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0)))
    val st = new AffinityState(g)
    st.setX(0, 0.34); st.setX(1, 0.33); st.setX(2, 0.33)
    CoordinateDescent.descend(st, Array(0, 1, 2), 1e-9)
    val f0 = st.f
    val r = Refinement.run(st)
    assert(r.supportSet.toSet == Set(0, 1, 2))
    assert(math.abs(r.f - f0) < 1e-12)
  }

  test("star graph refines to the single best edge") {
    // star is triangle-free, so any multi-leaf support must collapse
    val g = WGraph(4, Seq((0, 1, 4.0), (0, 2, 3.0), (0, 3, 2.0)))
    val st = new AffinityState(g)
    (0 until 4).foreach(u => st.setX(u, 0.25))
    CoordinateDescent.descend(st, (0 until 4).toArray, 1e-9)
    val r = Refinement.run(st)
    assert(g.isPositiveClique(r.supportSet.toSeq))
    assert(r.supportSet.length <= 2)
    assert(r.f >= 2.0 - 1e-6) // at least the best edge/2
  }

  test("single-vertex support is trivially a clique") {
    val g = WGraph(2, Seq.empty)
    val st = new AffinityState(g)
    st.setX(0, 1.0)
    val r = Refinement.run(st)
    assert(r.supportSet.toSeq == Seq(0))
    assert(r.f == 0.0)
  }
}
