package repro.core

import scala.collection.mutable

/** The original SEA algorithm of Liu et al. [18]: replicator-dynamics shrink
  * plus the same Expansion operation — the paper's "SEA+Refine" baseline.
  *
  * The replicator update `x_i <- x_i (Dx)_i / (x^T D x)` requires a
  * non-negative matrix, so this runs on `G_{D+}` only. Following Section VI-A,
  * the shrink stage stops when the objective improves by less than
  * `shrinkTol = 1e-6` per iteration — a condition the paper shows is *not*
  * sufficient to reach a local KKT point, so the subsequent expansion can
  * *decrease* the objective. Such events are counted as expansion errors
  * (Table VII's "#Errors in SEA").
  */
object ReplicatorSea {

  /** Replicator-dynamics shrink on the current support until the objective
    * improvement drops below `shrinkTol`. Returns iterations used.
    */
  def replicatorShrink(st: AffinityState, shrinkTol: Double = 1e-6, maxIter: Int = 100000): Int = {
    var iter = 0
    var done = false
    var fOld = st.f
    while (!done && iter < maxIter) {
      if (fOld <= 0.0) done = true // no internal positive weight: dynamic is undefined/stalled
      else {
        val sup = st.support
        // simultaneous update: compute every new value from the old x and Dx
        // before applying any of them
        val newX = sup.map(u => st.x(u) * st.dx(u) / fOld)
        var i = 0
        while (i < sup.length) { st.setX(sup(i), newX(i)); i += 1 }
        st.renormalize()
        val fNew = st.f
        iter += 1
        if (fNew - fOld <= shrinkTol) done = true
        fOld = fNew
      }
    }
    iter
  }

  /** The *original* SEA candidate rule: `Z = {i | (Dx)_i > f}` over ALL
    * vertices, as written in the appendix. At a true local KKT point no
    * support vertex qualifies, so this equals [[Expansion.candidates]];
    * after a shrink that stopped short of a KKT point (the replicator with
    * its loose `1e-6`-improvement condition) support vertices leak into `Z`,
    * the step derivation's `S_x` / `Z` case split breaks, and the expansion
    * can *decrease* the objective — exactly the error mode Table VII counts
    * for SEA+Refine.
    */
  private[core] def candidatesOriginal(st: AffinityState, tol: Double): Array[Int] = {
    val fbar = st.f
    val out = mutable.ArrayBuffer.empty[Int]
    for (v <- st.touched)
      if (st.dx(v) > fbar + tol) out += v
    out.toArray
  }

  /** Outer-iteration cap of [[run]]. It is small because a shrink stage that
    * failed to reach a local KKT point can make the shrink/expand loop cycle
    * (the very failure mode Table VII counts).
    */
  private val MaxOuter = 200

  /** Full SEA: shrink + expansion until no candidate remains. */
  def run(st: AffinityState): Seacd.Trace = {
    var errors = 0
    var outer = 0
    var done = false
    while (!done && outer < MaxOuter) {
      outer += 1
      replicatorShrink(st)
      val fBefore = st.f
      // the original SEA's Z may contain support vertices when the loose
      // shrink stopped short of a local KKT point — the source of its
      // expansion errors (see candidatesOriginal). The 1e-5 relative
      // tolerance mirrors a practical Z threshold: a shrink that converged
      // well leaves gradient spread below it (no error), a shrink on a
      // slow-mixing dense region leaves a larger gap and errs.
      val z = candidatesOriginal(st, 1e-5 * math.max(1.0, math.abs(fBefore)))
      if (z.isEmpty) done = true
      else {
        val fAfter = Expansion.expand(st, z)
        if (fAfter < fBefore - 1e-9) {
          // erroneous expansion: objective decreased; give up on this seed
          // (continuing would re-enter the same broken shrink/expand cycle)
          errors += 1
          done = true
        } else if (fAfter <= fBefore + 1e-12) done = true // stalled
      }
    }
    Seacd.Trace(outer, errors)
  }
}
