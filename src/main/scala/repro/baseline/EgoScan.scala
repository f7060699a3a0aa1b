package repro.baseline

import repro.graph.WGraph

import scala.collection.mutable

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

  /** Seeds scanned per run, moves per local search and vertices per ego net. */
  private val MaxSeeds = 64
  private val MaxMoves = 200000
  private val MaxEgoSize = 4000

  /** Runs the scan. Seeds are the `MaxSeeds` vertices with the largest
    * positive weighted degree (scanning every ego-net, as the original does,
    * only adds seeds that converge to the same local optima).
    */
  def run(gD: WGraph): EgoScanResult = {
    val posDeg = Array.tabulate(gD.n) { u =>
      var s = 0.0
      gD.foreachNbr(u) { (_, w) => if (w > 0) s += w }
      s
    }
    val seeds = (0 until gD.n).filter(posDeg(_) > 0.0).sortBy(u => -posDeg(u)).take(MaxSeeds)
    var best = EgoScanResult(Array.empty, 0.0)
    for (seed <- seeds) {
      val r = localSearch(gD, seed)
      if (r.totalWeight > best.totalWeight) best = r
    }
    best
  }

  /** Hill-climbs `W_D(S)` from `{seed} + positive neighbors of seed`,
    * restricted — as in the original EgoScan — to the seed's (2-hop) ego net.
    */
  private def localSearch(gD: WGraph, seed: Int): EgoScanResult = {
    // 2-hop ego net of the seed: the candidate universe for this scan
    val allowed = new Array[Boolean](gD.n)
    var egoSize = 0
    def allow(u: Int): Unit = if (!allowed(u) && egoSize < MaxEgoSize) { allowed(u) = true; egoSize += 1 }
    allow(seed)
    gD.foreachNbr(seed) { (v, _) => allow(v) }
    val oneHop = (0 until gD.n).filter(allowed)
    oneHop.foreach(u => gD.foreachNbr(u) { (v, _) => allow(v) })

    val in = new Array[Boolean](gD.n)
    // marginal(u) = sum of D(u,v) over v in S — the gain of adding u (or the
    // loss of removing it); maintained incrementally
    val marginal = new Array[Double](gD.n)
    val touched = mutable.ArrayBuffer.empty[Int]
    val touchedFlag = new Array[Boolean](gD.n)
    var total = 0.0
    var size = 0

    def touch(u: Int): Unit = if (!touchedFlag(u)) { touchedFlag(u) = true; touched += u }

    def add(u: Int): Unit = {
      total += marginal(u)
      in(u) = true; size += 1; touch(u)
      gD.foreachNbr(u) { (v, w) => marginal(v) += w; touch(v) }
    }
    def remove(u: Int): Unit = {
      total -= marginal(u)
      in(u) = false; size -= 1
      gD.foreachNbr(u) { (v, w) => marginal(v) -= w; touch(v) }
    }

    add(seed)
    gD.foreachNbr(seed) { (v, w) => if (w > 0 && !in(v)) add(v) }

    var moves = 0
    var improved = true
    while (improved && moves < MaxMoves) {
      improved = false
      // best add: candidate u not in S with marginal > 0;
      // best remove: u in S with marginal < 0
      var bestU = -1; var bestGain = 1e-12; var bestIsAdd = true
      var i = 0
      while (i < touched.length) {
        val u = touched(i)
        if (!in(u) && allowed(u) && marginal(u) > bestGain) { bestU = u; bestGain = marginal(u); bestIsAdd = true }
        if (in(u) && -marginal(u) > bestGain) { bestU = u; bestGain = -marginal(u); bestIsAdd = false }
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
    EgoScanResult((0 until gD.n).filter(in).toArray, 2.0 * total)
  }
}
