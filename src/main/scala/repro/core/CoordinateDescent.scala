package repro.core

/** The 2-Coordinate-Descent shrink of Section V-B.
  *
  * Each iteration fixes all but two coordinates `x_i, x_j` (chosen as the
  * extreme partial derivatives, Eq. 8) and solves the one-variable program
  * Eq. 9 analytically. Converges to a *local KKT point on S* (Eq. 10):
  * `max_{k in S: x_k < 1} grad_k - min_{k in S: x_k > 0} grad_k <= eps`.
  *
  * Works for arbitrary signed weights — this is what lets the paper's SEACD
  * replace the replicator dynamic (which requires a non-negative matrix).
  */
object CoordinateDescent {

  /** Default precision: the paper uses `eps = 1e-2 / |S|`. */
  def epsFor(supportSize: Int): Double = 1e-2 / math.max(1, supportSize)

  private val MaxIter = 2000000

  /** Runs 2-coordinate descent restricted to the vertex set `allowed`.
    *
    * Vertices outside `allowed` keep `x = 0`; vertices inside may enter or
    * leave the support. Returns the number of iterations performed.
    */
  def descend(st: AffinityState, allowed: Array[Int], eps: Double): Int = {
    val g = st.g
    var iter = 0
    var done = false
    while (!done && iter < MaxIter) {
      // i = argmax_{k in allowed, x_k < 1} grad_k ; j = argmin_{k in allowed, x_k > 0} grad_k
      var i = -1; var gi = Double.NegativeInfinity
      var j = -1; var gj = Double.PositiveInfinity
      var k = 0
      while (k < allowed.length) {
        val v = allowed(k)
        val gv = st.dx(v) // grad/2 — the factor 2 cancels in every comparison
        if (st.x(v) < 1.0 && gv > gi) { i = v; gi = gv }
        if (st.x(v) > 0.0 && gv < gj) { j = v; gj = gv }
        k += 1
      }
      if (i == -1 || j == -1 || i == j || 2.0 * (gi - gj) <= eps) done = true
      else {
        val c = st.x(i) + st.x(j)
        val d = g.weight(i, j)
        val bi = st.dx(i) - d * st.x(j)
        val bj = st.dx(j) - d * st.x(i)
        // g(xi) = -d*xi^2 + B*xi + const, B = d*c + bi - bj
        val newXi: Double =
          if (d == 0.0) {
            if (bi > bj) c else if (bi < bj) 0.0 else st.x(i)
          } else {
            val bCoef = d * c + bi - bj
            def gval(t: Double): Double = -d * t * t + bCoef * t
            val r = bCoef / (2.0 * d)
            var best = 0.0
            if (r >= 0.0 && r <= c && gval(r) > gval(best)) best = r
            if (gval(c) > gval(best)) best = c
            best
          }
        st.setX(i, newXi)
        st.setX(j, c - newXi)
        iter += 1
      }
    }
    iter
  }
}
