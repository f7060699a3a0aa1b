package repro.core

/** SEACD (Algorithm 3): Shrink-and-Expansion with a 2-coordinate-descent
  * shrink stage.
  *
  * Alternates (a) descending to a local KKT point on the current support via
  * [[CoordinateDescent]] and (b) expanding to vertices whose partial
  * derivative exceeds `lambda = 2 f_D(x)` via [[Expansion]], until no such
  * vertex remains — at which point `x` is a (global) KKT point of Eq. 6.
  *
  * Unlike the replicator-based SEA of Liu et al., the shrink stage reaches a
  * genuine local KKT point, so expansion never decreases the objective; the
  * `expansionErrors` counter exists to *demonstrate* that (it stays 0 here,
  * while [[ReplicatorSea]] trips it — Table VII's "#Errors in SEA").
  */
object Seacd {

  /** Outcome bookkeeping for one run. */
  final case class Trace(result: AffinityResult, seaIterations: Int, expansionErrors: Int)

  /** Floor of the expansion-candidate tolerance, guarding the approximate KKT
    * reached by finite-precision descent.
    */
  private val ExpTol = 1e-9

  private val MaxOuter = 10000

  /** Runs SEACD from the current state of `st` (callers `initAt` a seed). */
  def run(st: AffinityState): Trace = {
    var allowed = st.support
    var errors = 0
    var outer = 0
    var done = false
    while (!done && outer < MaxOuter) {
      outer += 1
      CoordinateDescent.descend(st, allowed, CoordinateDescent.epsFor(allowed.length))
      val fBefore = st.f
      val z = Expansion.candidates(st, math.max(ExpTol, math.abs(fBefore) * 1e-9))
      if (z.isEmpty) done = true
      else {
        val fAfter = Expansion.expand(st, z)
        if (fAfter < fBefore - 1e-9) errors += 1
        allowed = st.support
      }
    }
    Trace(st.result, outer, errors)
  }
}
