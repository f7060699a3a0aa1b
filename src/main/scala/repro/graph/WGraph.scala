package repro.graph

import scala.collection.mutable

/** An immutable undirected weighted graph in CSR (compressed sparse row) form.
  *
  * Vertices are `0 until n`. Each undirected edge `(u, v, w)` with `u != v`
  * appears in both adjacency segments. Edge weights may be negative — this is
  * the "difference graph" substrate of the DCS paper, where
  * `D(u,v) = A2(u,v) - A1(u,v)` can have either sign.
  *
  * Neighbor segments are sorted by vertex id so `weight(u, v)` is a binary
  * search, which makes clique checks on small supports cheap.
  *
  * @param n       number of vertices (vertex universe, including isolated ones)
  * @param offsets CSR offsets, length `n + 1`
  * @param nbrs    concatenated sorted neighbor lists, length `2 * numEdges`
  * @param wts     weights parallel to `nbrs`
  */
final class WGraph private (
    val n: Int,
    val offsets: Array[Int],
    val nbrs: Array[Int],
    val wts: Array[Double],
) extends Serializable {

  /** Number of undirected edges. */
  val numEdges: Int = nbrs.length / 2

  /** Unweighted degree (neighbor count) of `u`. */
  def degreeCount(u: Int): Int = offsets(u + 1) - offsets(u)

  /** Weighted degree of `u` in the full graph: sum of incident edge weights. */
  def weightedDegree(u: Int): Double = {
    var s = 0.0
    var i = offsets(u)
    while (i < offsets(u + 1)) { s += wts(i); i += 1 }
    s
  }

  /** Total degree `W(V)` of the full graph.
    *
    * NOTE on conventions: the paper's edge set `E` contains both orientations
    * of every undirected edge, so `W(S) = sum over (u,v) in E(S) of A(u,v)`
    * counts each undirected edge twice and `rho(S) = W(S)/|S|` is literally
    * the average of the vertex degrees (a `k`-clique with unit weights has
    * `rho = k - 1`, as used in the proof of Thm 1). All `W`/`rho` values in
    * this codebase follow that convention.
    */
  lazy val totalWeight: Double = wts.sum

  /** Applies `f(neighbor, weight)` to every neighbor of `u`. */
  @inline def foreachNbr(u: Int)(f: (Int, Double) => Unit): Unit = {
    var i = offsets(u)
    while (i < offsets(u + 1)) { f(nbrs(i), wts(i)); i += 1 }
  }

  /** Weight of edge `(u, v)`, or 0.0 if absent. Binary search in `u`'s segment. */
  def weight(u: Int, v: Int): Double = {
    var lo = offsets(u); var hi = offsets(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val m = nbrs(mid)
      if (m == v) return wts(mid)
      else if (m < v) lo = mid + 1
      else hi = mid - 1
    }
    0.0
  }

  /** Whether `(u, v)` is an edge (stored weights are never 0). */
  def hasEdge(u: Int, v: Int): Boolean = weight(u, v) != 0.0

  /** Total degree `W(S)` of the induced subgraph `G(S)` — both orientations
    * of each edge counted, per the paper's convention (see [[totalWeight]]).
    */
  def inducedWeight(s: Iterable[Int]): Double = {
    val in = toMask(s)
    var w = 0.0
    for (u <- s) foreachNbr(u) { (v, wt) => if (in(v)) w += wt }
    w
  }

  /** Number of edges in the induced subgraph `G(S)`. */
  def inducedEdgeCount(s: Iterable[Int]): Int = {
    val in = toMask(s)
    var c = 0
    for (u <- s) foreachNbr(u) { (v, _) => if (in(v) && v > u) c += 1 }
    c
  }

  /** Average degree `rho(S) = W(S)/|S|` of the induced subgraph; 0 for empty S. */
  def density(s: Iterable[Int]): Double = {
    val sz = s.size
    if (sz == 0) 0.0 else inducedWeight(s) / sz
  }

  /** Edge density `W(S)/|S|^2`, the discrete analogue of graph affinity. */
  def edgeDensity(s: Iterable[Int]): Double = {
    val sz = s.size
    if (sz == 0) 0.0 else inducedWeight(s) / (sz.toDouble * sz)
  }

  /** Whether `G(S)` is a clique with all edge weights strictly positive. */
  def isPositiveClique(s: Iterable[Int]): Boolean = {
    val vs = s.toArray
    var i = 0
    while (i < vs.length) {
      var j = i + 1
      while (j < vs.length) {
        if (weight(vs(i), vs(j)) <= 0.0) return false
        j += 1
      }
      i += 1
    }
    true
  }

  /** Connected components of the induced subgraph `G(S)`, as vertex lists. */
  def componentsOf(s: Iterable[Int]): Seq[Array[Int]] = {
    val vs = s.toArray
    val unseen = toMask(vs) // members of S not yet reached
    val out = mutable.ArrayBuffer.empty[Array[Int]]
    for (root <- vs if unseen(root)) {
      val comp = mutable.ArrayBuffer.empty[Int]
      val stack = mutable.ArrayDeque(root)
      unseen(root) = false
      while (stack.nonEmpty) {
        val u = stack.removeLast()
        comp += u
        foreachNbr(u) { (v, _) =>
          if (unseen(v)) { unseen(v) = false; stack.append(v) }
        }
      }
      out += comp.toArray
    }
    out.toSeq
  }

  /** The graph keeping only edges with strictly positive weight (`G_{D+}`),
    * built on first use and shared by every caller.
    */
  lazy val positivePart: WGraph = {
    // filtering the sorted segments in order keeps each one sorted
    val pOffsets = new Array[Int](n + 1)
    val pNbrs = new Array[Int](wts.count(_ > 0.0))
    val pWts = new Array[Double](pNbrs.length)
    var k = 0
    var u = 0
    while (u < n) {
      foreachNbr(u) { (v, w) => if (w > 0.0) { pNbrs(k) = v; pWts(k) = w; k += 1 } }
      u += 1
      pOffsets(u) = k
    }
    new WGraph(n, pOffsets, pNbrs, pWts)
  }

  /** A new graph with every edge weight negated (Emerging <-> Disappearing). */
  def negated: WGraph = new WGraph(n, offsets, nbrs, wts.map(-_))

  /** Unweighted core number `tau_u` of every vertex (standard k-core peeling).
    *
    * `O(m + n)` bucket peeling; used by NewSEA's `mu_u` bound (Thm 6).
    */
  def coreNumbers: Array[Int] = {
    val deg = Array.tabulate(n)(degreeCount)
    val maxDeg = if (n == 0) 0 else deg.max
    // bucket sort vertices by degree
    val bin = new Array[Int](maxDeg + 2)
    deg.foreach(d => bin(d) += 1)
    var start = 0
    var d = 0
    while (d <= maxDeg) { val c = bin(d); bin(d) = start; start += c; d += 1 }
    val pos = new Array[Int](n)
    val vert = new Array[Int](n)
    var v = 0
    while (v < n) { pos(v) = bin(deg(v)); vert(pos(v)) = v; bin(deg(v)) += 1; v += 1 }
    // restore bin starts
    d = maxDeg
    while (d >= 1) { bin(d) = bin(d - 1); d -= 1 }
    bin(0) = 0
    val core = deg.clone()
    var i = 0
    while (i < n) {
      val u = vert(i)
      foreachNbr(u) { (w, _) =>
        if (core(w) > core(u)) {
          val dw = core(w); val pw = pos(w)
          val pFirst = bin(dw); val vFirst = vert(pFirst)
          if (w != vFirst) {
            pos(w) = pFirst; vert(pw) = vFirst
            pos(vFirst) = pw; vert(pFirst) = w
          }
          bin(dw) += 1
          core(w) -= 1
        }
      }
      i += 1
    }
    core
  }

  /** Max incident edge weight per vertex (0.0 for isolated vertices). */
  def maxIncidentWeight: Array[Double] = {
    val m = new Array[Double](n)
    var u = 0
    while (u < n) {
      var best = 0.0
      foreachNbr(u) { (_, w) => if (w > best) best = w }
      m(u) = best
      u += 1
    }
    m
  }

  /** Ego-net weight bound `w_u` (Thm 6): max weight over edges with at least
    * one endpoint in `T_u = {u} union N(u)`. Computed for all vertices in
    * `O(m)` as `max over v in T_u of maxIncidentWeight(v)`.
    */
  def egoNetMaxWeight: Array[Double] = {
    val inc = maxIncidentWeight
    val w = inc.clone()
    var u = 0
    while (u < n) {
      foreachNbr(u) { (v, _) => if (inc(v) > w(u)) w(u) = inc(v) }
      u += 1
    }
    w
  }

  private def toMask(s: Iterable[Int]): Array[Boolean] = {
    val m = new Array[Boolean](n)
    s.foreach(m(_) = true)
    m
  }
}

object WGraph {

  /** Builds a graph from one record per undirected edge.
    *
    * Requires `0 <= us(i), vs(i) < n` and `us(i) != vs(i)`; duplicate pairs
    * (in either orientation) are rejected. Zero-weight edges are dropped.
    */
  def fromEdges(n: Int, us: Array[Int], vs: Array[Int], ws: Array[Double]): WGraph = {
    require(us.length == vs.length && vs.length == ws.length, "parallel edge arrays")
    val keep = (0 until us.length).filter(i => ws(i) != 0.0)
    val deg = new Array[Int](n)
    keep.foreach { i =>
      require(us(i) != vs(i), s"self loop at ${us(i)}")
      deg(us(i)) += 1; deg(vs(i)) += 1
    }
    val offsets = new Array[Int](n + 1)
    var u = 0
    while (u < n) { offsets(u + 1) = offsets(u) + deg(u); u += 1 }
    val fill = offsets.clone()
    val nbrs = new Array[Int](keep.length * 2)
    val wts = new Array[Double](keep.length * 2)
    keep.foreach { i =>
      val (a, b, w) = (us(i), vs(i), ws(i))
      nbrs(fill(a)) = b; wts(fill(a)) = w; fill(a) += 1
      nbrs(fill(b)) = a; wts(fill(b)) = w; fill(b) += 1
    }
    // sort each adjacency segment by neighbor id (weights follow)
    u = 0
    while (u < n) {
      val from = offsets(u); val until = offsets(u + 1)
      if (until - from > 1) {
        val idx = (from until until).toArray.sortBy(nbrs)
        val sn = idx.map(nbrs); val sw = idx.map(wts)
        var k = 0
        while (k < idx.length) { nbrs(from + k) = sn(k); wts(from + k) = sw(k); k += 1 }
        k = from + 1
        while (k < until) {
          require(nbrs(k) != nbrs(k - 1), s"duplicate edge ($u, ${nbrs(k)})")
          k += 1
        }
      }
      u += 1
    }
    new WGraph(n, offsets, nbrs, wts)
  }

  /** Convenience builder from `(u, v, w)` triples. */
  def apply(n: Int, edges: Seq[(Int, Int, Double)]): WGraph =
    fromEdges(n, edges.map(_._1).toArray, edges.map(_._2).toArray, edges.map(_._3).toArray)
}
