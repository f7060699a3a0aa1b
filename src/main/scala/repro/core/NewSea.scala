package repro.core

import repro.graph.WGraph

import scala.collection.mutable

/** NewSEA (Algorithm 5): SEACD + Refinement driven by the smart
  * initialization heuristic of Section V-D.
  *
  * For every vertex `u`, `mu_u = tau_u * w_u / (tau_u + 1)` upper-bounds the
  * affinity of any clique in `G_{D+}` containing `u` (Thm 6 with the core
  * number `tau_u` bounding the clique size and the ego-net maximum weight
  * `w_u` bounding edge weights). Seeds are tried in descending `mu_u` order
  * and the loop stops at the first seed whose bound cannot beat the
  * incumbent — usually after a handful of initializations instead of `n`.
  */
object NewSea {

  /** Outcome of a multi-initialization DCSGA run.
    *
    * @param best       best refined (positive-clique) solution found
    * @param initsUsed  number of initializations actually run
    * @param errors     expansion errors observed across all runs
    */
  final case class MultiResult(best: AffinityResult, initsUsed: Int, errors: Int)

  /** `mu_u` for every vertex of `gDp` (which must be the positive part). */
  def smartBounds(gDp: WGraph): Array[Double] = {
    val tau = gDp.coreNumbers
    val w = gDp.egoNetMaxWeight
    Array.tabulate(gDp.n)(u => tau(u).toDouble * w(u) / (tau(u) + 1.0))
  }

  /** Runs NewSEA on `G_{D+}`. */
  def run(gDp: WGraph): MultiResult = {
    val mu = smartBounds(gDp)
    seedLoop(gDp, (0 until gDp.n).toArray.sortBy(u => -mu(u)), mu, useReplicator = false)(_ => ())
  }

  /** SEACD+Refine or SEA+Refine with an initialization at *every* vertex
    * (the paper's exhaustive baselines): NewSEA's seed loop without the
    * bound. Also returns the distinct positive cliques found, with
    * subset-cliques removed — the raw material of Table V and Fig. 3.
    *
    * @param useReplicator  true for the original-SEA shrink (SEA+Refine)
    */
  def allInits(gDp: WGraph, useReplicator: Boolean): (MultiResult, Seq[AffinityResult]) = {
    val cliques = mutable.LinkedHashMap.empty[Seq[Int], AffinityResult]
    val noBound = Array.fill(gDp.n)(Double.PositiveInfinity)
    val best = seedLoop(gDp, Array.range(0, gDp.n), noBound, useReplicator) { r =>
      val key = r.supportSet.toSeq
      if (key.nonEmpty && !cliques.contains(key)) cliques(key) = r
    }
    (best, dropSubsetCliques(cliques.values.toSeq))
  }

  /** Runs init, shrink/expand and Refinement from each seed of `order` and
    * keeps the best refined result, stopping at the first seed `u` whose
    * `bound(u)` cannot beat the incumbent. `found` sees every refined result.
    */
  private def seedLoop(gDp: WGraph, order: Array[Int], bound: Array[Double], useReplicator: Boolean)(
      found: AffinityResult => Unit): MultiResult = {
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
    MultiResult(best, k, errors)
  }

  /** Removes cliques whose support is a strict subset of another clique's
    * support, then sorts by descending affinity (Section VI-C
    * post-processing). Array-backed so the scan is `O(C^2)` over the `C`
    * distinct cliques.
    */
  def dropSubsetCliques(cs: Seq[AffinityResult]): Seq[AffinityResult] = {
    val arr = cs.toArray
    val sets = arr.map(_.supportSet.toSet)
    arr.indices
      .filterNot { i =>
        arr.indices.exists(j => sets(i).size < sets(j).size && sets(i).subsetOf(sets(j)))
      }
      .map(arr)
      .sortBy(-_.f)
  }
}
