package repro.baseline

import repro.core.AffinityState
import repro.graph.WGraph

/** EgoScan-style baseline (Cadena, Chen & Vullikanti, ICDM 2016 — reference
  * [6] of the paper): maximize the *total* edge-weight difference `W_D(S)`
  * over the signed difference graph.
  *
  * The original scans ego-nets and rounds a semidefinite-programming
  * relaxation per ego-net; no SDP solver exists in this offline environment
  * (and the paper reports the SDP as EgoScan's bottleneck), so the rounding
  * step is replaced with hill-climbing local search per ego-net seed:
  * starting from a seed vertex plus its positive-edge neighbors, repeatedly
  * apply the best single-vertex add/remove move until no move increases
  * `W_D(S)`. This preserves the behaviour Tables VIII/IX measure — EgoScan
  * returns much larger, non-clique subgraphs with higher total weight but far
  * lower *density* difference than the DCS algorithms.
  */
object EgoScan {

  final case class EgoScanResult(s: Array[Int], totalWeight: Double)

  /** Seeds scanned per run and moves per local search. */
  private val MaxSeeds = 64
  private val MaxMoves = 200000

  /** Runs the scan. Seeds are the `MaxSeeds` vertices with the largest
    * positive weighted degree (scanning every ego-net, as the original does,
    * only adds seeds that converge to the same local optima).
    */
  def run(gD: WGraph): EgoScanResult = {
    val gDp = gD.positivePart
    val posDeg = Array.tabulate(gD.n)(gDp.weightedDegree)
    val seeds = (0 until gD.n).filter(posDeg(_) > 0.0).sortBy(u => -posDeg(u)).take(MaxSeeds)
    val st = new AffinityState(gD)
    var best = EgoScanResult(Array.empty, 0.0)
    for (seed <- seeds) {
      val r = localSearch(st, gDp, seed)
      if (r.totalWeight > best.totalWeight) best = r
    }
    best
  }

  /** Hill-climbs `W_D(S)` from `{seed} + positive neighbors of seed`,
    * restricted — as in the original EgoScan — to the seed's (2-hop) ego net;
    * throws `IllegalStateException` if it makes `MaxMoves` moves.
    */
  private def localSearch(st: AffinityState, gDp: WGraph, seed: Int): EgoScanResult = {
    val gD = st.g
    // 2-hop ego net of the seed: the candidate universe for this scan
    val allowed = new Array[Boolean](gD.n)
    allowed(seed) = true
    gD.foreachNbr(seed) { (v, _) =>
      allowed(v) = true
      gD.foreachNbr(v) { (x, _) => allowed(x) = true }
    }

    // x is the 0/1 indicator of S, so dx(u) = sum of D(u,v) over v in S: the
    // gain of adding u, or the loss of removing it
    st.reset()
    var total = 0.0
    def add(u: Int): Unit = { total += st.dx(u); st.setX(u, 1.0) }
    def remove(u: Int): Unit = { total -= st.dx(u); st.setX(u, 0.0) }

    add(seed)
    gDp.foreachNbr(seed) { (v, _) => add(v) }

    var moves = 0
    var improved = true
    while (improved) {
      if (moves == MaxMoves) throw new IllegalStateException(s"EgoScan reached MaxMoves = $MaxMoves from seed $seed")
      improved = false
      // best add: candidate u not in S with dx > 0; best remove: u in S with dx < 0
      var bestU = -1; var bestGain = 1e-12; var bestIsAdd = true
      val touched = st.touched
      var i = 0
      while (i < touched.length) {
        val u = touched(i)
        val in = st.x(u) > 0.0
        if (!in && allowed(u) && st.dx(u) > bestGain) { bestU = u; bestGain = st.dx(u); bestIsAdd = true }
        if (in && -st.dx(u) > bestGain) { bestU = u; bestGain = -st.dx(u); bestIsAdd = false }
        i += 1
      }
      if (bestU >= 0) {
        if (bestIsAdd) add(bestU) else remove(bestU)
        improved = true
        moves += 1
      }
    }
    // report W_D(S) in the paper's both-orientations convention (2x the
    // internal undirected sum); the argmax is unaffected
    EgoScanResult(st.support.sorted, 2.0 * total)
  }
}
