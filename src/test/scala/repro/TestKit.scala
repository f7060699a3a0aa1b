package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graph.WGraph

import scala.collection.mutable
import scala.util.Random

/** Shared test helpers: small-graph constructors and brute-force oracles for
  * both DCS objectives (usable up to ~n = 15).
  */
object TestKit {

  /** Exhaustive densest subset: `max over nonempty S of W(S)/|S|` (paper
    * convention: both orientations counted).
    */
  def bruteDensest(g: WGraph): (Set[Int], Double) = {
    require(g.n <= 20, "exhaustive search only for tiny graphs")
    var best = Set.empty[Int]
    var bestRho = Double.NegativeInfinity
    for (mask <- 1 until (1 << g.n)) {
      val s = (0 until g.n).filter(i => (mask & (1 << i)) != 0)
      val rho = g.density(s)
      if (rho > bestRho) { bestRho = rho; best = s.toSet }
    }
    (best, bestRho)
  }

  /** Local reference for `DistPeeling.densest`: the same batch peel on the
    * CSR graph. Each round keeps the vertices that have an edge inside the
    * current set, records `(|S|, W(S))`, and removes every vertex whose
    * degree is at most `(1 + eps) * W(S)/|S|`; it stops when `S` is empty or
    * a round removes nobody. Returns the rounds, the best set and its density,
    * with `(empty, 0)` when no round has positive density.
    */
  def batchPeel(g: WGraph, eps: Double): (Seq[(Int, Double)], Set[Int], Double) = {
    val rounds = scala.collection.mutable.ArrayBuffer.empty[(Int, Double)]
    var alive = (0 until g.n).toSet
    var best = Set.empty[Int]
    var bestRho = Double.NegativeInfinity
    var done = false
    def degreeIn(set: Set[Int], u: Int): (Int, Double) = {
      var c = 0; var w = 0.0
      g.foreachNbr(u) { (v, wt) => if (set(v)) { c += 1; w += wt } }
      (c, w)
    }
    while (!done) {
      val s = alive.filter(u => degreeIn(alive, u)._1 > 0)
      if (s.isEmpty || rounds.lastOption.exists(_._1 == s.size)) done = true
      else {
        val deg = s.iterator.map(u => u -> degreeIn(s, u)._2).toMap
        val total = deg.values.sum
        val rho = total / s.size
        rounds += ((s.size, total))
        if (rho > bestRho) { bestRho = rho; best = s }
        alive = s.filter(u => deg(u) > (1.0 + eps) * rho)
      }
    }
    if (bestRho <= 0.0) (rounds.toSeq, Set.empty, 0.0) else (rounds.toSeq, best, bestRho)
  }

  /** Lifts a local graph into a canonical edge-list DataFrame. */
  def toDF(spark: SparkSession, g: WGraph): DataFrame = {
    import spark.implicits._
    val edges = scala.collection.mutable.ArrayBuffer.empty[(Long, Long, Double)]
    var u = 0
    while (u < g.n) {
      g.foreachNbr(u) { (v, w) => if (v > u) edges += ((u.toLong, v.toLong, w)) }
      u += 1
    }
    edges.toSeq.toDF("src", "dst", "w")
  }

  /** Reference for `Peeling.greedy`: the same peel on a boxed
    * `mutable.PriorityQueue[(Double, Int)]` ordered by key, reversed, which is
    * what the primitive `PeelHeap` must reproduce pop for pop.
    */
  def priorityQueuePeel(g: WGraph): PeelResult = {
    val n = g.n
    if (n == 0) return PeelResult(Array.empty, 0.0)
    val deg = Array.tabulate(n)(g.weightedDegree)
    val removed = new Array[Boolean](n)
    val heap = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
    var u = 0
    while (u < n) { heap.enqueue((deg(u), u)); u += 1 }

    var totalW = g.totalWeight
    var size = n
    var bestDensity = totalW / size
    var bestSize = size
    val order = new Array[Int](n)
    var step = 0
    while (size > 1) {
      var v = -1
      while (v == -1) {
        val (d, cand) = heap.dequeue()
        if (!removed(cand) && d == deg(cand)) v = cand
      }
      removed(v) = true
      totalW -= 2.0 * deg(v)
      size -= 1
      g.foreachNbr(v) { (w, wt) =>
        if (!removed(w)) { deg(w) -= wt; heap.enqueue((deg(w), w)) }
      }
      order(step) = v
      step += 1
      val rho = totalW / size
      if (rho > bestDensity) { bestDensity = rho; bestSize = size }
    }
    val gone = new Array[Boolean](n)
    var i = 0
    while (i < n - bestSize) { gone(order(i)) = true; i += 1 }
    PeelResult((0 until n).filter(!gone(_)).toArray, bestDensity)
  }

  /** Random graph with weights +1/-1 (each pair present w.p. `p`, positive
    * w.p. `pPos`), where equal degrees are the norm.
    */
  def randomDiscrete(n: Int, p: Double, pPos: Double, seed: Long): WGraph = {
    val rnd = new Random(seed)
    val edges = for {
      i <- 0 until n
      j <- (i + 1) until n
      if rnd.nextDouble() < p
    } yield (i, j, if (rnd.nextDouble() < pPos) 1.0 else -1.0)
    WGraph(n, edges)
  }

  /** `g` with every pair of `clique` set to an edge of weight +1, whatever
    * its weight in `g` was.
    */
  def withPlantedClique(g: WGraph, clique: Seq[Int]): WGraph = {
    val w = mutable.LinkedHashMap.empty[(Int, Int), Double]
    for (u <- 0 until g.n) g.foreachNbr(u)((v, x) => if (u < v) w((u, v)) = x)
    for (a <- clique; b <- clique if a < b) w((a, b)) = 1.0
    WGraph(g.n, w.iterator.map { case ((u, v), x) => (u, v, x) }.toSeq)
  }

  /** Reference for `Expansion.expand`: the same step with the omega sum
    * written as a `foreachNbr` closure filtered to `gamma(u) != 0.0`, the
    * plain form that the branch-free CSR loop must match bit for bit. A local
    * `gamma` stands in for the state's scratch array, which is all zeros
    * between calls.
    */
  def closureExpand(st: AffinityState, z: Array[Int]): Double = {
    if (z.isEmpty) return st.f
    val fbar = st.f
    val gamma = new Array[Double](st.g.n)
    var s = 0.0; var zeta = 0.0
    var k = 0
    while (k < z.length) {
      val v = z(k)
      gamma(v) = st.dx(v) - fbar
      s += gamma(v); zeta += gamma(v) * gamma(v)
      k += 1
    }
    var omega = 0.0
    k = 0
    while (k < z.length) {
      val v = z(k)
      st.g.foreachNbr(v) { (u, w) => if (gamma(u) != 0.0) omega += gamma(v) * gamma(u) * w }
      k += 1
    }
    val a = fbar * s * s + 2.0 * s * zeta - omega
    val tau = if (a <= 0.0) 1.0 / s else math.min(1.0 / s, zeta / a)
    val oldSup = st.support
    oldSup.foreach(u => st.setX(u, st.x(u) * (1.0 - tau * s)))
    k = 0
    while (k < z.length) { val v = z(k); st.setX(v, tau * gamma(v)); k += 1 }
    st.renormalize()
    st.f
  }

  /** Solves the dense linear system `A x = b` by Gaussian elimination with
    * partial pivoting; returns None if (near-)singular.
    */
  def solve(a: Array[Array[Double]], b: Array[Double]): Option[Array[Double]] = {
    val n = b.length
    val m = Array.tabulate(n, n + 1)((i, j) => if (j < n) a(i)(j) else b(i))
    for (col <- 0 until n) {
      val piv = (col until n).maxBy(r => math.abs(m(r)(col)))
      if (math.abs(m(piv)(col)) < 1e-12) return None
      val tmp = m(col); m(col) = m(piv); m(piv) = tmp
      for (r <- 0 until n if r != col) {
        val factor = m(r)(col) / m(col)(col)
        for (c <- col to n) m(r)(c) -= factor * m(col)(c)
      }
    }
    Some(Array.tabulate(n)(i => m(i)(n) / m(i)(i)))
  }

  /** Brute-force DCSGA optimum: by Thm 5 an optimal embedding is supported on
    * a positive clique, and on a clique the interior KKT point solves
    * `D_S x = lambda 1, sum x = 1` (boundary optima are covered by
    * enumerating sub-cliques). Returns `(support, f)`.
    */
  def bruteMaxAffinity(g: WGraph): (Set[Int], Double) = {
    require(g.n <= 18, "exhaustive search only for tiny graphs")
    var best = Set.empty[Int]
    var bestF = 0.0
    for (mask <- 1 until (1 << g.n)) {
      val s = (0 until g.n).filter(i => (mask & (1 << i)) != 0)
      if (g.isPositiveClique(s)) {
        val f = cliqueOptF(g, s)
        if (f > bestF) { bestF = f; best = s.toSet }
      }
    }
    (best, bestF)
  }

  /** Optimal `x^T D x` over embeddings supported on clique `s`, considering
    * the interior stationary point (if feasible) and the uniform point.
    * Sub-clique boundary optima are the caller's responsibility.
    */
  def cliqueOptF(g: WGraph, s: Seq[Int]): Double = {
    val k = s.length
    if (k == 1) return 0.0
    val d = Array.tabulate(k, k)((i, j) => g.weight(s(i), s(j)))
    // stationarity with multiplier: D x = (lambda/2) 1; scale-invariant, so
    // solve D y = 1 and normalize
    val interior = solve(d, Array.fill(k)(1.0)).flatMap { y =>
      val sum = y.sum
      if (sum <= 0 || y.exists(_ < -1e-9)) None
      else {
        val x = y.map(_ / sum)
        var f = 0.0
        for (i <- 0 until k; j <- 0 until k) f += x(i) * x(j) * d(i)(j)
        Some(f)
      }
    }
    val uniform = {
      var f = 0.0
      for (i <- 0 until k; j <- 0 until k) f += d(i)(j) / (k.toDouble * k)
      f
    }
    math.max(interior.getOrElse(0.0), uniform)
  }

  /** Evaluates `f_D(x) = x^T D x` directly from an embedding. */
  def evalF(g: WGraph, x: Map[Int, Double]): Double = {
    var f = 0.0
    for ((u, xu) <- x; (v, xv) <- x) f += xu * xv * g.weight(u, v)
    f
  }

  /** Random signed graph: each pair present w.p. `p`, weight U(-range, range). */
  def randomSigned(n: Int, p: Double, range: Double, seed: Long): WGraph = {
    val rnd = new Random(seed)
    val edges = for {
      i <- 0 until n
      j <- (i + 1) until n
      if rnd.nextDouble() < p
    } yield (i, j, (rnd.nextDouble() * 2 - 1) * range)
    WGraph(n, edges)
  }

  /** Random positive-weight graph. */
  def randomPositive(n: Int, p: Double, range: Double, seed: Long): WGraph = {
    val rnd = new Random(seed)
    val edges = for {
      i <- 0 until n
      j <- (i + 1) until n
      if rnd.nextDouble() < p
    } yield (i, j, rnd.nextDouble() * range + 1e-3)
    WGraph(n, edges)
  }

  /** KKT violation of `x` on graph `g` (Eq. 8): `max_{x_k<1} grad_k - min_{x_k>0} grad_k`,
    * clamped at 0. Near 0 means `x` is a KKT point.
    */
  def kktViolation(g: WGraph, x: Map[Int, Double]): Double = {
    val dx = Array.fill(g.n)(0.0)
    for ((u, xu) <- x) g.foreachNbr(u)((v, w) => dx(v) += w * xu)
    val maxFree = (0 until g.n).filter(u => x.getOrElse(u, 0.0) < 1.0).map(dx).maxOption.getOrElse(0.0)
    val minSup = x.collect { case (u, xu) if xu > 0 => dx(u) }.minOption.getOrElse(0.0)
    math.max(0.0, 2.0 * (maxFree - minSup))
  }

  /** Reference for `NewSea`'s seed loop: the single-threaded loop on one
    * reused `AffinityState`, stopping at the first seed whose bound cannot
    * beat the incumbent. `found` sees every refined result, in seed order.
    */
  def sequentialSeedLoop(gDp: WGraph, order: Array[Int], bound: Array[Double], useReplicator: Boolean)(
      found: AffinityResult => Unit): NewSea.MultiResult = {
    val st = new AffinityState(gDp)
    var best = AffinityResult(Array.empty, 0.0)
    var errors = 0
    var k = 0
    while (k < order.length && bound(order(k)) > best.f) {
      st.initAt(order(k))
      val trace = if (useReplicator) ReplicatorSea.run(st) else Seacd.run(st)
      errors += trace.expansionErrors
      val refined = Refinement.run(st)
      found(refined)
      if (refined.f > best.f) best = refined
      k += 1
    }
    NewSea.MultiResult(best, k, errors)
  }

  /** Reference for `NewSea.dropSubsetCliques`: the all-pairs scan over
    * `Set[Int]` supports, `O(C^2)` in the `C` distinct cliques, whose list
    * and order the vertex-indexed version must reproduce.
    */
  def allPairsDropSubsetCliques(cs: Seq[AffinityResult]): Seq[AffinityResult] = {
    val arr = cs.filter(_.supportSet.nonEmpty).distinctBy(_.supportSet.toSeq).toArray
    val sets = arr.map(_.supportSet.toSet)
    arr.indices
      .filterNot { i =>
        arr.indices.exists(j => sets(i).size < sets(j).size && sets(i).subsetOf(sets(j)))
      }
      .map(arr)
      .sortBy(-_.f)
  }
}
