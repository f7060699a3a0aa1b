package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.graph.WGraph

class CoordinateDescentSpec extends AnyFunSuite {

  private def stateOn(g: WGraph, init: Map[Int, Double]): AffinityState = {
    val st = new AffinityState(g)
    init.foreach { case (u, v) => st.setX(u, v) }
    st
  }

  test("single edge: descends to the balanced optimum w/2") {
    val g = WGraph(2, Seq((0, 1, 4.0)))
    val st = stateOn(g, Map(0 -> 0.9, 1 -> 0.1))
    CoordinateDescent.descend(st, Array(0, 1), 1e-9)
    assert(math.abs(st.f - 2.0) < 1e-6)
    assert(math.abs(st.x(0) - 0.5) < 1e-4)
  }

  test("triangle with equal weights: uniform optimum 2w/3") {
    val g = WGraph(3, Seq((0, 1, 3.0), (1, 2, 3.0), (0, 2, 3.0)))
    val st = stateOn(g, Map(0 -> 1.0))
    // from a unit vector nothing moves (f = 0 is a local KKT on {0});
    // start from an interior point instead
    st.reset()
    st.setX(0, 0.5); st.setX(1, 0.3); st.setX(2, 0.2)
    CoordinateDescent.descend(st, Array(0, 1, 2), 1e-9)
    assert(math.abs(st.f - 2.0) < 1e-6) // 2w/3 = 2
  }

  test("negative edge between support vertices gets resolved to one endpoint") {
    // from an asymmetric start the descent pushes all mass to one vertex
    // (the symmetric point is a degenerate KKT point — saddle — which the
    // paper's selection rule cannot distinguish; Refinement on G_{D+} is what
    // guarantees negative edges never survive in final solutions)
    val g = WGraph(2, Seq((0, 1, -4.0)))
    val st = stateOn(g, Map(0 -> 0.6, 1 -> 0.4))
    CoordinateDescent.descend(st, Array(0, 1), 1e-9)
    assert(st.f >= -1e-12)
    assert(st.supportSize == 1)
  }

  test("objective is monotonically non-decreasing across descents") {
    for (seed <- 1 to 15) {
      val g = TestKit.randomSigned(10, 0.5, 2.0, seed)
      val st = new AffinityState(g)
      val k = 4
      (0 until k).foreach(u => st.setX(u, 1.0 / k))
      val f0 = st.f
      CoordinateDescent.descend(st, (0 until 10).toArray, 1e-9)
      assert(st.f >= f0 - 1e-9, s"seed=$seed f0=$f0 f=${st.f}")
    }
  }

  test("descent reaches a KKT point (Eq. 8) on the allowed set") {
    for (seed <- 1 to 15) {
      val g = TestKit.randomSigned(10, 0.5, 2.0, seed)
      val st = new AffinityState(g)
      (0 until 10).foreach(u => st.setX(u, 0.1))
      CoordinateDescent.descend(st, (0 until 10).toArray, 1e-9)
      val x = st.support.map(u => u -> st.x(u)).toMap
      assert(TestKit.kktViolation(g, x) < 1e-6, s"seed=$seed")
    }
  }

  test("simplex invariant: mass stays 1 and coordinates stay in [0,1]") {
    for (seed <- 1 to 15) {
      val g = TestKit.randomSigned(12, 0.4, 3.0, seed)
      val st = new AffinityState(g)
      (0 until 6).foreach(u => st.setX(u, 1.0 / 6))
      CoordinateDescent.descend(st, (0 until 12).toArray, 1e-9)
      assert(math.abs(st.mass - 1.0) < 1e-9)
      st.support.foreach(u => assert(st.x(u) > 0 && st.x(u) <= 1.0 + 1e-12))
    }
  }

  test("restricting to allowed set never grows support outside it") {
    val g = TestKit.randomPositive(10, 0.8, 2.0, 5)
    val st = new AffinityState(g)
    st.setX(0, 0.5); st.setX(1, 0.5)
    CoordinateDescent.descend(st, Array(0, 1, 2), 1e-9)
    assert(st.support.toSet.subsetOf(Set(0, 1, 2)))
  }

  test("f equals direct evaluation of x^T D x after descent") {
    for (seed <- 1 to 10) {
      val g = TestKit.randomSigned(9, 0.6, 2.0, seed)
      val st = new AffinityState(g)
      (0 until 5).foreach(u => st.setX(u, 0.2))
      CoordinateDescent.descend(st, (0 until 9).toArray, 1e-9)
      val x = st.support.map(u => u -> st.x(u)).toMap
      assert(math.abs(st.f - TestKit.evalF(g, x)) < 1e-9, s"seed=$seed")
    }
  }

  test("descend throws at its iteration cap instead of returning a truncated point") {
    // no edge between 0 and 1 and all mass on 0: i = 1, j = 0, the gap is 0
    // and every step leaves x as it is, so a negative eps is never met
    val g = WGraph(2, Seq.empty)
    val st = stateOn(g, Map(0 -> 1.0))
    val e = intercept[IllegalStateException] {
      CoordinateDescent.descend(st, Array(0, 1), -1.0)
    }
    assert(e.getMessage.contains("MaxIter = 2000000"), e.getMessage)
    assert(e.getMessage.contains("support of 1 vertices"), e.getMessage)
  }

  test("epsFor follows the paper's 1e-2/|S| precision schedule") {
    assert(CoordinateDescent.epsFor(10) == 1e-3)
    assert(CoordinateDescent.epsFor(0) == 1e-2)
  }
}
