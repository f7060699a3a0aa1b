package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.graph.WGraph

import scala.collection.mutable
import scala.util.Random

class PeelingSpec extends AnyFunSuite {

  test("single vertex graph") {
    val g = WGraph(1, Seq.empty)
    val r = Peeling.greedy(g)
    assert(r.best.toSeq == Seq(0))
    assert(r.density == 0.0)
  }

  test("single positive edge: both endpoints kept, density = weight") {
    val g = WGraph(3, Seq((0, 1, 3.0)))
    val r = Peeling.greedy(g)
    assert(r.density == 3.0) // 2*3/2
    assert(Set(0, 1).subsetOf(r.best.toSet))
  }

  test("clique with pendant: clique retained") {
    val edges = (for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j, 1.0)) :+ (0, 5, 0.1)
    val g = WGraph(6, edges)
    val r = Peeling.greedy(g)
    assert(r.best.toSet == Set(0, 1, 2, 3, 4))
    assert(math.abs(r.density - 4.0) < 1e-12)
  }

  test("on positive graphs greedy is within factor 2 of the exhaustive optimum") {
    for (seed <- 1 to 20) {
      val g = TestKit.randomPositive(12, 0.4, 3.0, seed)
      val (_, opt) = TestKit.bruteDensest(g)
      val r = Peeling.greedy(g)
      assert(r.density >= opt / 2 - 1e-9, s"seed=$seed got=${r.density} opt=$opt")
      assert(r.density <= opt + 1e-9, s"seed=$seed greedy cannot beat the optimum")
      assert(math.abs(g.density(r.best.toSeq) - r.density) < 1e-9, "reported density matches the set")
    }
  }

  test("on signed graphs the reported density matches the returned set") {
    for (seed <- 1 to 20) {
      val g = TestKit.randomSigned(12, 0.4, 3.0, seed)
      val r = Peeling.greedy(g)
      assert(math.abs(g.density(r.best.toSeq) - r.density) < 1e-9, s"seed=$seed")
      val (_, opt) = TestKit.bruteDensest(g)
      assert(r.density <= opt + 1e-9)
    }
  }

  test("all-negative graph: returns a zero-density (edge-free) set") {
    val g = WGraph(4, Seq((0, 1, -1.0), (1, 2, -2.0), (2, 3, -5.0)))
    val r = Peeling.greedy(g)
    assert(r.density == 0.0)
    assert(g.inducedWeight(r.best.toSeq) == 0.0)
  }

  test("negative weights can hide the dense core from naive peeling order") {
    // heavy positive pair attached to strongly negative vertex
    val g = WGraph(4, Seq((0, 1, 10.0), (1, 2, -20.0), (2, 3, 1.0)))
    val r = Peeling.greedy(g)
    assert(r.best.toSet == Set(0, 1))
    assert(math.abs(r.density - 10.0) < 1e-12)
  }

  test("greedy density is deterministic") {
    val g = TestKit.randomSigned(40, 0.2, 4.0, 123)
    val a = Peeling.greedy(g)
    val b = Peeling.greedy(g)
    assert(a.density == b.density)
    assert(a.best.toSeq == b.best.toSeq)
  }

  test("larger random graph: density of best prefix >= density of full graph") {
    val g = TestKit.randomSigned(200, 0.05, 2.0, 7)
    val r = Peeling.greedy(g)
    assert(r.density >= g.density(0 until 200) - 1e-9)
  }

  test("PeelHeap pops (key, vertex) in mutable.PriorityQueue's order, ties and signed zeros included") {
    val keys = Array(-1.0, -0.0, 0.0, 0.0, -0.0, 0.5, 1.0, 2.0)
    def bits(k: Double, v: Int) = (java.lang.Double.doubleToRawLongBits(k), v)
    for (seed <- 1 to 200) {
      val rnd = new Random(seed)
      val heap = new PeelHeap(1 + rnd.nextInt(4)) // small, so pushes grow it
      val ref = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
      val got = mutable.ArrayBuffer.empty[(Long, Int)]
      val want = mutable.ArrayBuffer.empty[(Long, Int)]
      def popBoth(): Unit = {
        got += bits(heap.minKey, heap.minVertex); heap.pop()
        val (k, v) = ref.dequeue(); want += bits(k, v)
      }
      val ops = 50 + rnd.nextInt(300)
      for (i <- 0 until ops) {
        if (ref.nonEmpty && rnd.nextInt(3) == 0) popBoth()
        else {
          val k = keys(rnd.nextInt(if (seed % 2 == 0) 3 else keys.length))
          heap.push(k, i); ref.enqueue((k, i))
        }
      }
      while (ref.nonEmpty) popBoth()
      assert(got == want, s"seed=$seed")
    }
  }

  test("greedy equals the boxed PriorityQueue peel on signed, +-1 and all-negative graphs") {
    def same(g: WGraph, what: String): Unit = {
      val a = Peeling.greedy(g)
      val b = TestKit.priorityQueuePeel(g)
      assert(a.best.sameElements(b.best), what)
      assert(a.density == b.density, what)
    }
    for (seed <- 1 to 30) {
      same(TestKit.randomSigned(60, 0.15, 3.0, seed), s"signed seed=$seed")
      same(TestKit.randomDiscrete(60, 0.2, 0.6, seed), s"discrete seed=$seed")
      same(TestKit.randomDiscrete(60, 0.2, 0.6, seed).positivePart, s"discrete G_D+ seed=$seed")
    }
    same(WGraph(4, Seq((0, 1, -1.0), (1, 2, -2.0), (2, 3, -5.0))), "all-negative")
    same(TestKit.randomDiscrete(30, 0.3, 0.0, 5), "all-negative +-1")
  }
}
