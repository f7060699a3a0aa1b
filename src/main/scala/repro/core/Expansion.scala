package repro.core

import scala.collection.mutable

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
    val out = mutable.ArrayBuffer.empty[Int]
    for (v <- st.touched)
      if (st.x(v) == 0.0 && st.dx(v) > fbar + tol) out += v
    out.toArray
  }

  /** Performs one expansion step over `z`; returns the new objective value. */
  def expand(st: AffinityState, z: Array[Int]): Double = {
    if (z.isEmpty) return st.f
    val fbar = st.f
    val gamma = new Array[Double](z.length)
    val inZ = new mutable.HashMap[Int, Int] // vertex -> index in z
    var s = 0.0; var zeta = 0.0
    var k = 0
    while (k < z.length) {
      val v = z(k)
      gamma(k) = st.dx(v) - fbar
      s += gamma(k); zeta += gamma(k) * gamma(k)
      inZ(v) = k
      k += 1
    }
    var omega = 0.0 // sum over ordered pairs (i, j) in Z^2 of gamma_i gamma_j D(i,j)
    k = 0
    while (k < z.length) {
      val v = z(k)
      st.g.foreachNbr(v) { (u, w) =>
        inZ.get(u).foreach(ku => omega += gamma(k) * gamma(ku) * w)
      }
      k += 1
    }
    val a = fbar * s * s + 2.0 * s * zeta - omega
    val tau = if (a <= 0.0) 1.0 / s else math.min(1.0 / s, zeta / a)
    // x <- x + tau * b : old support scales by (1 - tau s), Z gets tau*gamma
    val oldSup = st.support
    oldSup.foreach(u => st.setX(u, st.x(u) * (1.0 - tau * s)))
    k = 0
    while (k < z.length) { st.setX(z(k), tau * gamma(k)); k += 1 }
    st.renormalize()
    st.f
  }
}
