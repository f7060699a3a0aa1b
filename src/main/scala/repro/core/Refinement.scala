package repro.core

/** Refinement of a KKT point to a positive-clique solution (Algorithm 4,
  * constructive proof of Theorem 5).
  *
  * While the support has a pair `(u, v)` with `D(u,v) <= 0` (on `G_{D+}`: a
  * non-adjacent pair), moves all of `x_v`'s mass onto `u` and re-descends to
  * a local KKT point on the shrunken support. At a KKT point the two
  * gradients are equal, so the move changes `f` by `-2 x_v^2 D(u,v) >= 0`.
  * The support strictly shrinks each round, so this terminates with the
  * support a positive clique of the state's graph and `f` non-decreased.
  */
object Refinement {

  /** Refines the state in place; returns the final (positive-clique) result. */
  @annotation.tailrec
  def run(st: AffinityState): AffinityResult =
    st.g.nonPositivePair(st.support.sorted) match {
      case None => st.result
      case Some((u, v)) =>
        st.setX(u, st.x(u) + st.x(v))
        st.setX(v, 0.0)
        val allowed = st.support
        CoordinateDescent.descend(st, allowed, CoordinateDescent.epsFor(allowed.length))
        run(st)
    }
}
