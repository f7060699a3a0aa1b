package repro.core

import repro.graph.WGraph

import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}

/** Result of DCSGreedy (Algorithm 2).
  *
  * @param s        the chosen vertex set
  * @param density  `rho_D(S) = W_D(S)/|S|` in the difference graph
  * @param ratio    the data-dependent approximation ratio
  *                 `2 * rho_{D+}(S2) / rho_D(S)` (Thm 2); `1.0` when `G_D`
  *                 has no positive edge (the trivial single vertex is optimal)
  * @param winner   the candidate that won line 7
  * @param split    whether the winner was disconnected in `G_D`, so that
  *                 lines 8-9 replaced it by its densest component
  */
final case class DCSResult(s: Array[Int], density: Double, ratio: Double,
                           winner: DCSGreedy.Candidate, split: Boolean)

/** DCSGreedy (Algorithm 2): the `O(n)`-approximation for DCS w.r.t. average
  * degree on a difference graph with signed edge weights.
  *
  * Candidates: the heaviest positive edge `{u, v}` (an `1/(n-1)`-optimal
  * solution), `Greedy(G_D)` and `Greedy(G_{D+})`; all three are evaluated by
  * their density in `G_D` and the winner is refined to its best connected
  * component of `G_D(S)` (Property 1). The two peels are independent, so
  * `Greedy(G_{D+})` runs on `ExecutionContext.global` while the calling
  * thread peels `G_D`.
  */
object DCSGreedy {

  /** Where a [[DCSResult]]'s set came from. */
  sealed trait Candidate
  /** No positive edge: the single vertex 0, density 0. */
  case object SingleVertex extends Candidate
  /** The heaviest positive edge. */
  case object MaxEdge extends Candidate
  /** `Greedy(G_D)`. */
  case object PeelGD extends Candidate
  /** `Greedy(G_{D+})`. */
  case object PeelGDPlus extends Candidate

  def run(gD: WGraph): DCSResult = {
    // locate the heaviest edge and check for any positive weight
    var bu = -1; var bv = -1; var bw = Double.NegativeInfinity
    var u = 0
    while (u < gD.n) {
      gD.foreachNbr(u) { (v, w) => if (v > u && w > bw) { bu = u; bv = v; bw = w } }
      u += 1
    }
    if (bu == -1 || bw <= 0.0) {
      // no positive-weight edge: any single vertex is optimal (density 0)
      return DCSResult(if (gD.n > 0) Array(0) else Array.empty, 0.0, 1.0, SingleVertex, split = false)
    }

    val gDp = gD.positivePart
    val peelGDp = Future(Peeling.greedy(gDp))(ExecutionContext.global)
    val s1 = Peeling.greedy(gD).best
    val s2 = Await.result(peelGDp, Duration.Inf).best

    // line 7: all candidates scored by density in G_D; maxBy keeps the
    // first of equally dense candidates
    val (cand, winner) = Seq(Array(bu, bv) -> MaxEdge, s1 -> PeelGD, s2 -> PeelGDPlus)
      .maxBy { case (c, _) => gD.density(c) }

    // lines 8-9: keep the densest connected component of G_D(S)
    val comps = gD.componentsOf(cand)
    val split = comps.size > 1
    val s = if (split) comps.maxBy(c => gD.density(c)) else cand
    val rho = gD.density(s)

    val ratio = 2.0 * gDp.density(s2) / rho
    DCSResult(s.sorted, rho, ratio, winner, split)
  }
}
