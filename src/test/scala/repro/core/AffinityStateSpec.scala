package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.graph.WGraph

class AffinityStateSpec extends AnyFunSuite {

  test("setX maintains (Dx) incrementally") {
    val g = WGraph(4, Seq((0, 1, 2.0), (1, 2, -3.0), (2, 3, 1.0)))
    val st = new AffinityState(g)
    st.setX(0, 0.5)
    st.setX(1, 0.25)
    st.setX(2, 0.25)
    assert(st.dx(0) == 2.0 * 0.25)
    assert(st.dx(1) == 2.0 * 0.5 + (-3.0) * 0.25)
    assert(st.dx(2) == -3.0 * 0.25)
    assert(st.dx(3) == 1.0 * 0.25)
  }

  test("f equals x^T D x") {
    for (seed <- 1 to 10) {
      val g = TestKit.randomSigned(8, 0.6, 2.0, seed)
      val st = new AffinityState(g)
      val rnd = new scala.util.Random(seed)
      val raw = Array.fill(8)(rnd.nextDouble())
      val sum = raw.sum
      (0 until 8).foreach(u => st.setX(u, raw(u) / sum))
      val x = (0 until 8).map(u => u -> st.x(u)).toMap
      assert(math.abs(st.f - TestKit.evalF(g, x)) < 1e-9, s"seed=$seed")
    }
  }

  test("support tracks positive coordinates through zeroing") {
    val g = WGraph(3, Seq((0, 1, 1.0)))
    val st = new AffinityState(g)
    st.setX(0, 0.7); st.setX(2, 0.3)
    assert(st.support.toSet == Set(0, 2))
    st.setX(2, 0.0)
    assert(st.support.toSet == Set(0))
    st.setX(1, 0.3)
    assert(st.support.toSet == Set(0, 1))
  }

  test("reset restores a pristine state (reusable across inits)") {
    val g = WGraph(3, Seq((0, 1, 5.0), (1, 2, 5.0)))
    val st = new AffinityState(g)
    st.setX(0, 0.5); st.setX(1, 0.5)
    st.reset()
    assert(st.supportSize == 0)
    assert((0 until 3).forall(u => st.x(u) == 0.0 && st.dx(u) == 0.0))
    assert(st.f == 0.0)
    st.initAt(2)
    assert(st.support.toSeq == Seq(2))
    assert(st.dx(1) == 5.0)
  }

  test("renormalize restores unit mass") {
    val g = WGraph(2, Seq((0, 1, 1.0)))
    val st = new AffinityState(g)
    st.setX(0, 0.3); st.setX(1, 0.3)
    st.renormalize()
    assert(math.abs(st.mass - 1.0) < 1e-12)
    assert(math.abs(st.x(0) - 0.5) < 1e-12)
  }

  test("result reports sorted support with weights") {
    val g = WGraph(3, Seq((0, 2, 1.0)))
    val st = new AffinityState(g)
    st.setX(2, 0.6); st.setX(0, 0.4)
    val r = st.result
    assert(r.embedding.map(_._1).toSeq == Seq(0, 2))
    assert(r.embedding.map(_._2).toSeq == Seq(0.4, 0.6))
  }
}
