package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed densest-subgraph peeling as an iterative DataFrame algorithm
  * (Bahmani, Kumar & Vassilvitskii, PVLDB 2012 — reference [2] of the paper).
  *
  * Each round computes weighted degrees with a shuffle aggregation and drops
  * every vertex whose degree is at most `(1 + eps)` times the current
  * average degree `rho = W(S)/|S|` — `O(log n)` rounds instead
  * of the `n` rounds of exact peeling. On positive-weight graphs this is a
  * `2(1+eps)`-approximation of the densest subgraph: the Spark-side
  * counterpart of the local `Peeling.greedy` (Algorithm 1).
  */
object DistPeeling {

  /** One snapshot of the peel: the surviving vertex count and density. */
  final case class Round(size: Long, totalWeight: Double, density: Double)

  /** Result: vertex ids of the best round plus its density and the trace. */
  final case class DistPeelResult(best: Array[Long], density: Double, rounds: Seq[Round])

  private val MaxRounds = 200

  /** Peels `edges` (canonical `src < dst`, `w` column) down to empty,
    * returning the densest intermediate vertex set.
    */
  def densest(edges: DataFrame, eps: Double = 0.1): DistPeelResult = {
    var cur = edges.select("src", "dst", "w").localCheckpoint(true)
    var best: Array[Long] = Array.empty
    var bestDensity = Double.NegativeInfinity
    val rounds = scala.collection.mutable.ArrayBuffer.empty[Round]
    var round = 0
    var done = false
    while (!done && round < MaxRounds) {
      round += 1
      val degrees = cur
        .select(col("src") as "v", col("w"))
        .unionAll(cur.select(col("dst") as "v", col("w")))
        .groupBy("v")
        .agg(sum("w") as "deg")
        .localCheckpoint(true)
      val agg = degrees.agg(count("*") as "n", sum("deg") as "degSum").collect()(0)
      val nV = agg.getLong(0)
      if (nV == 0) done = true
      else {
        // W counts both orientations (paper convention), so W = sum of degrees
        // and rho = W/|S| is the average vertex degree
        val totalW = agg.getDouble(1)
        val rho = totalW / nV
        rounds += Round(nV, totalW, rho)
        if (rho > bestDensity) {
          bestDensity = rho
          best = degrees.select("v").collect().map(_.getLong(0))
        }
        val threshold = (1.0 + eps) * rho
        val keep = degrees.where(col("deg") > threshold).select("v").localCheckpoint(true)
        val kept = keep.count()
        // kept == nV can only happen when rho < 0 (the threshold then sits
        // below the average degree); no progress is possible, so stop
        if (kept == 0L || kept == nV) done = true
        else {
          cur = cur
            .join(keep.withColumnRenamed("v", "src"), Seq("src"))
            .join(keep.withColumnRenamed("v", "dst"), Seq("dst"))
            .select("src", "dst", "w")
            .localCheckpoint(true)
        }
      }
    }
    // a single isolated vertex has density 0, so on graphs where every
    // intermediate density is negative the trivial empty/singleton answer wins
    if (bestDensity <= 0.0) DistPeelResult(Array.empty, 0.0, rounds.toSeq)
    else DistPeelResult(best, bestDensity, rounds.toSeq)
  }
}
