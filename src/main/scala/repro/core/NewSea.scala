package repro.core

import repro.graph.WGraph

import java.util.concurrent.CountDownLatch
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference, DoubleAccumulator}

import scala.concurrent.{ExecutionContext, blocking}

/** NewSEA (Algorithm 5): SEACD + Refinement driven by the smart
  * initialization heuristic of Section V-D.
  *
  * Every entry point takes the difference graph `G_D` (any graph) and
  * searches its positive part `G_{D+}`, because the optimum is a positive
  * clique (Thm 5). For every vertex `u`, `mu_u = tau_u * w_u / (tau_u + 1)`
  * upper-bounds the affinity of any clique in `G_{D+}` containing `u` (Thm 6
  * with the core number `tau_u` bounding the clique size and the ego-net
  * maximum weight `w_u` bounding edge weights). Seeds are tried in
  * descending `mu_u` order and the loop stops at the first seed whose bound
  * cannot beat the incumbent — usually after a handful of initializations
  * instead of `n`.
  */
object NewSea {

  /** Outcome of a multi-initialization DCSGA run.
    *
    * @param best       best refined (positive-clique) solution found
    * @param initsUsed  number of initializations actually run
    * @param errors     expansion errors observed across all runs
    */
  final case class MultiResult(best: AffinityResult, initsUsed: Int, errors: Int)

  /** `mu_u` for every vertex, from the core numbers and ego-net weights of `G_{D+}`. */
  def smartBounds(g: WGraph): Array[Double] = {
    val gDp = g.positivePart
    val tau = gDp.coreNumbers
    val w = gDp.egoNetMaxWeight
    Array.tabulate(gDp.n)(u => tau(u).toDouble * w(u) / (tau(u) + 1.0))
  }

  /** Runs NewSEA on `G_{D+}` of `g`. */
  def run(g: WGraph): MultiResult = {
    val mu = smartBounds(g)
    seedLoop(g.positivePart, (0 until g.n).toArray.sortBy(u => -mu(u)), mu, useReplicator = false)._1
  }

  /** SEACD+Refine or SEA+Refine with an initialization at *every* vertex
    * (the paper's exhaustive baselines): NewSEA's seed loop on `G_{D+}` of
    * `g`, without the bound. Also returns the distinct positive cliques
    * found, with subset-cliques removed — the raw material of Table V and
    * Fig. 3.
    *
    * @param useReplicator  true for the original-SEA shrink (SEA+Refine)
    */
  def allInits(g: WGraph, useReplicator: Boolean): (MultiResult, Seq[AffinityResult]) = {
    val (best, found) = seedLoop(g.positivePart, Array.range(0, g.n), Array.fill(g.n)(Double.PositiveInfinity), useReplicator)
    (best, dropSubsetCliques(found))
  }

  /** Runs init, shrink/expand and Refinement from each seed of `order` and
    * keeps the best refined result, stopping at the first seed `u` whose
    * `bound(u)` cannot beat the incumbent; also returns every seed's result in order.
    *
    * The seeds run on every core: each worker owns one [[AffinityState]] and
    * takes seed indices in order through [[claim]], which checks the bound
    * against a shared incumbent read *before* the index is taken. Every seed
    * that had raised the incumbent by then was claimed earlier, so no worker
    * stops past the point where the sequential loop stops, and every seed
    * before that point has run. After the join the results are replayed in
    * seed order with the sequential stopping rule, so `best` (its support
    * too), `initsUsed`, `errors` and the returned results are exactly those
    * of a single-threaded loop; results past the stop point are dropped. This
    * is exact because `reset` returns a state to all zeros, so a seed's
    * result does not depend on which seeds its state ran before.
    */
  private[core] def seedLoop(gDp: WGraph, order: Array[Int], bound: Array[Double],
                             useReplicator: Boolean): (MultiResult, Seq[AffinityResult]) = {
    val m = order.length
    val results = new Array[AffinityResult](m)
    val errs = new Array[Int](m)
    val next = new AtomicInteger(0)
    val take = () => next.getAndIncrement()
    val incumbent = new DoubleAccumulator((a, b) => math.max(a, b), 0.0)
    val failure = new AtomicReference[Throwable]

    // a failing worker stops the others; the caller rethrows its error after the join
    def worker(): Unit = try {
      var st: AffinityState = null
      var k = claim(take, incumbent, order, bound)
      while (k >= 0) {
        if (st == null) st = new AffinityState(gDp)
        st.initAt(order(k))
        val trace = if (useReplicator) ReplicatorSea.run(st) else Seacd.run(st)
        errs(k) = trace.expansionErrors
        results(k) = Refinement.run(st)
        incumbent.accumulate(results(k).f)
        k = claim(take, incumbent, order, bound)
      }
    } catch { case e: Throwable => next.set(m); failure.compareAndSet(null, e) }

    val helpers = new CountDownLatch(math.max(0, math.min(Runtime.getRuntime.availableProcessors, m) - 1))
    for (_ <- 0L until helpers.getCount)
      ExecutionContext.global.execute(() => try worker() finally helpers.countDown())
    worker()
    blocking(helpers.await())
    if (failure.get != null) throw failure.get

    var best = AffinityResult(Array.empty, 0.0)
    var errors = 0
    var k = 0
    while (k < m && bound(order(k)) > best.f) {
      errors += errs(k)
      if (results(k).f > best.f) best = results(k)
      k += 1
    }
    (MultiResult(best, k, errors), results.take(k).toSeq)
  }

  /** A seed-loop worker's next index into `order`, or -1 when it stops. It
    * reads the incumbent *before* it takes an index with `take`, and stops
    * once the seeds run out or the taken seed's bound cannot beat that read.
    * `get` is not an atomic snapshot, but any value it returns was accumulated
    * by a seed claimed before the read, which is all the stopping rule needs.
    */
  private[core] def claim(take: () => Int, incumbent: DoubleAccumulator, order: Array[Int], bound: Array[Double]): Int = {
    val inc = incumbent.get
    val k = take()
    if (k < order.length && bound(order(k)) > inc) k else -1
  }

  /** Section VI-C post-processing: drops empty supports, keeps the first of
    * each support in input order, drops strict subsets of another support
    * (compared as sets) and stable-sorts by descending affinity.
    *
    * A clique can only be a strict subset of a larger clique that holds its
    * rarest vertex, so each of the `C` distinct cliques is merged only
    * against the strictly larger cliques on that vertex's posting list. The
    * posting lists are CSR arrays over the supports' vertices, ranked densely
    * so that any vertex id fits. The cost is one sort of the `L` support
    * entries plus, per clique, its rarest vertex's list times its size,
    * instead of `C^2` set tests.
    */
  def dropSubsetCliques(cs: Seq[AffinityResult]): Seq[AffinityResult] = {
    val arr = cs.filter(_.supportSet.nonEmpty).distinctBy(_.supportSet.toSeq).toArray
    val ids = arr.flatMap(_.supportSet).sorted.distinct
    // each support as the sorted distinct ranks of its vertices in ids
    val sets = arr.map(_.supportSet.map(java.util.Arrays.binarySearch(ids, _)).sorted.distinct)
    // posting lists: holders(start(v) until start(v + 1)) are the cliques that contain v
    val start = new Array[Int](ids.length + 1)
    for (s <- sets; v <- s) start(v + 1) += 1
    for (v <- ids.indices) start(v + 1) += start(v)
    val holders = new Array[Int](start(ids.length))
    val fill = start.clone()
    for (i <- sets.indices; v <- sets(i)) { holders(fill(v)) = i; fill(v) += 1 }
    arr.indices
      .filterNot { i =>
        val s = sets(i)
        val rare = s.minBy(v => start(v + 1) - start(v))
        (start(rare) until start(rare + 1)).exists { p =>
          val t = sets(holders(p))
          s.length < t.length && sortedSubset(s, t)
        }
      }
      .map(arr)
      .sortBy(-_.f)
  }

  /** Whether sorted distinct `a` is a subset of sorted distinct `b`, by one merge. */
  private def sortedSubset(a: Array[Int], b: Array[Int]): Boolean = {
    var i = 0
    var j = 0
    while (i < a.length && j < b.length && a(i) >= b(j)) {
      if (a(i) == b(j)) i += 1
      j += 1
    }
    i == a.length
  }
}
