package repro.core

import repro.graph.WGraph

/** Result of a greedy peel: the best prefix found and its average degree. */
final case class PeelResult(best: Array[Int], density: Double)

/** Charikar's greedy peeling (Algorithm 1 of the paper), generalized to
  * graphs with negative edge weights.
  *
  * Starting from `S1 = V`, repeatedly removes the vertex with the minimum
  * current weighted degree `W(j; G(S1))` and keeps the prefix with the largest
  * average degree `W(S1)/|S1|`. A lazy binary heap stands in for the paper's
  * segment tree; both give `O((m + n) log n)`.
  *
  * On positive-weight graphs this is the classic 2-approximation of densest
  * subgraph [Charikar 2000]; on difference graphs it is one of the candidate
  * generators inside DCSGreedy (no ratio guarantee — Cor 1).
  */
object Peeling {

  def greedy(g: WGraph): PeelResult = {
    val n = g.n
    if (n == 0) return PeelResult(Array.empty, 0.0)
    val deg = new Array[Double](n)
    val removed = new Array[Boolean](n)
    // lazy min-heap of (degree-at-push, vertex)
    val heap = new PeelHeap(n)
    var u = 0
    while (u < n) { deg(u) = g.weightedDegree(u); heap.push(deg(u), u); u += 1 }

    var totalW = g.totalWeight
    var size = n
    var bestDensity = totalW / size
    var bestSize = size
    val order = new Array[Int](n) // removal order
    var step = 0

    while (size > 1) {
      var v = -1
      while (v == -1) {
        val d = heap.minKey
        val cand = heap.minVertex
        heap.pop()
        if (!removed(cand) && d == deg(cand)) v = cand
      }
      removed(v) = true
      totalW -= 2.0 * deg(v) // W counts both orientations; v's row and column vanish
      size -= 1
      g.foreachNbr(v) { (w, wt) =>
        if (!removed(w)) { deg(w) -= wt; heap.push(deg(w), w) }
      }
      order(step) = v
      step += 1
      val rho = totalW / size
      if (rho > bestDensity) { bestDensity = rho; bestSize = size }
    }

    // best prefix = all vertices not among the first (n - bestSize) removals
    val gone = new Array[Boolean](n)
    var i = 0
    while (i < n - bestSize) { gone(order(i)) = true; i += 1 }
    val best = new Array[Int](bestSize)
    var k = 0
    i = 0
    while (i < n) { if (!gone(i)) { best(k) = i; k += 1 }; i += 1 }
    PeelResult(best, bestDensity)
  }
}

/** The min-heap of [[Peeling.greedy]]: `(key, vertex)` entries in two primitive
  * arrays, grown by doubling.
  *
  * It sifts exactly as Scala 2.13's `mutable.PriorityQueue` does under
  * `Ordering.by[(Double, Int), Double](_._1).reverse`: entries sit in slots
  * `1..size`, a push sifts up (`fixUp`), a pop moves the last entry to slot 1
  * and sifts down (`fixDown`), and keys compare with
  * `java.lang.Double.compare` (so `-0.0` sorts before `0.0`). Entries with
  * equal keys therefore pop in that queue's order.
  */
private[core] final class PeelHeap(capacity: Int) {
  private var keys = new Array[Double](capacity + 1)
  private var verts = new Array[Int](keys.length)
  private var size = 0

  /** Key of the minimum entry; the heap must be nonempty. */
  def minKey: Double = { if (size == 0) throw new NoSuchElementException("empty heap"); keys(1) }

  /** Vertex of the minimum entry; the heap must be nonempty. */
  def minVertex: Int = { if (size == 0) throw new NoSuchElementException("empty heap"); verts(1) }

  def push(key: Double, v: Int): Unit = {
    size += 1
    if (size == keys.length) {
      keys = java.util.Arrays.copyOf(keys, 2 * keys.length)
      verts = java.util.Arrays.copyOf(verts, keys.length)
    }
    // fixUp: move parents down while the parent's key is greater
    var k = size
    while (k > 1 && java.lang.Double.compare(keys(k / 2), key) > 0) {
      keys(k) = keys(k / 2); verts(k) = verts(k / 2)
      k /= 2
    }
    keys(k) = key; verts(k) = v
  }

  /** Removes the minimum entry. */
  def pop(): Unit = {
    if (size == 0) throw new NoSuchElementException("empty heap")
    val key = keys(size)
    val v = verts(size)
    size -= 1
    // fixDown of the last entry from slot 1: stop at the first child it does not exceed
    var k = 1
    while (size >= 2 * k) {
      var j = 2 * k
      if (j < size && java.lang.Double.compare(keys(j), keys(j + 1)) > 0) j += 1
      if (java.lang.Double.compare(key, keys(j)) <= 0) {
        keys(k) = key; verts(k) = v
        return
      }
      keys(k) = keys(j); verts(k) = verts(j)
      k = j
    }
    keys(k) = key; verts(k) = v
  }
}
