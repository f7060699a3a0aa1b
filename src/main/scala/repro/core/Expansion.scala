package repro.core

/** The SEA Expansion operation (Appendix A of the paper, originally from
  * Liu et al., TPAMI 2013).
  *
  * Given a *local* KKT point `x` on its support `S` with value
  * `fbar = f_D(x)`, finds `Z = {v notin S | (Dx)_v > fbar}` — the vertices
  * whose partial derivative exceeds `lambda = 2 fbar` — and moves mass along
  * `b = gamma - s * x` where `gamma_v = (Dx)_v - fbar` on `Z`.
  *
  * The change is `Delta f = -a tau^2 + 2 zeta tau` with
  * `a = fbar s^2 + 2 s zeta - omega`, so the maximizing step is
  * `tau = 1/s` when `a <= 0` and `tau = min(1/s, zeta/a)` otherwise.
  * (The paper's appendix has two sign typos here; this is the corrected
  * derivation, which the tests verify by direct evaluation of `f`.)
  */
object Expansion {

  /** Vertices eligible for expansion: outside the support, with a partial
    * derivative strictly above `lambda = 2 f(x)` (tolerance `tol` guards the
    * approximate KKT points produced by finite-precision descent).
    */
  def candidates(st: AffinityState, tol: Double): Array[Int] = {
    val fbar = st.f
    // an IntStream, because ArrayOps.filter boxes every vertex it tests
    java.util.Arrays.stream(st.touched).filter(v => st.x(v) == 0.0 && st.dx(v) > fbar + tol).toArray
  }

  /** Whether an expansion that took the objective from `fBefore` to `fAfter`
    * decreased it: an expansion error (Table VII's "#Errors in SEA"). SEACD
    * and the replicator SEA count errors with this one test.
    */
  def isError(fBefore: Double, fAfter: Double): Boolean = fAfter < fBefore - 1e-9

  /** Performs one expansion step over `z`, distinct vertices with `(Dx)_v > f`
    * as both candidate rules give; returns the new objective value.
    */
  def expand(st: AffinityState, z: Array[Int]): Double = {
    if (z.isEmpty) return st.f
    val fbar = st.f
    val gamma = st.gamma // zero on entry; nonzero exactly on Z, where (Dx)_v > fbar
    var s = 0.0; var zeta = 0.0
    var k = 0
    while (k < z.length) {
      val v = z(k)
      gamma(v) = st.dx(v) - fbar
      s += gamma(v); zeta += gamma(v) * gamma(v)
      k += 1
    }
    // omega = sum over ordered pairs (i, j) in Z^2 of gamma_i gamma_j D(i,j). The loop adds the
    // term of every CSR neighbour u of v, with no test for u in Z, and gets the same bits: off Z,
    // gamma(u) is exactly +0.0, so with gamma_v and w finite (fromEdges rejects NaN and infinite
    // weights) the term (gamma_v * gamma_u) * w is +-0.0. Adding +-0.0 leaves a nonzero sum as it
    // is and a +0.0 sum at +0.0; the sum starts at +0.0, and a round-to-nearest addition gives
    // -0.0 only from two -0.0 operands, so it is never -0.0.
    val nbrs = st.g.nbrs; val wts = st.g.wts; val offsets = st.g.offsets
    var omega = 0.0
    k = 0
    while (k < z.length) {
      val v = z(k); val gv = gamma(v)
      var i = offsets(v); val end = offsets(v + 1)
      while (i < end) { omega += gv * gamma(nbrs(i)) * wts(i); i += 1 }
      k += 1
    }
    val a = fbar * s * s + 2.0 * s * zeta - omega
    val tau = if (a <= 0.0) 1.0 / s else math.min(1.0 / s, zeta / a)
    // x <- x + tau * b : old support scales by (1 - tau s), Z gets tau*gamma
    val oldSup = st.support
    oldSup.foreach(u => st.setX(u, st.x(u) * (1.0 - tau * s)))
    k = 0
    while (k < z.length) { val v = z(k); st.setX(v, tau * gamma(v)); gamma(v) = 0.0; k += 1 }
    st.renormalize()
    st.f
  }
}
