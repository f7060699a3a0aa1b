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
  *
  * A round materializes two tables: the degree table of the surviving
  * vertices (one aggregate of it gives `|S|` and `W(S)`) and the edges among
  * the vertices above the threshold, which the next round starts from. The
  * degree table of the best round already lists the answer, so vertex ids
  * are collected to the driver once, after the last round.
  */
object DistPeeling {

  /** One snapshot of the peel: the surviving vertex count and density. */
  final case class Round(size: Long, totalWeight: Double, density: Double)

  /** Result: vertex ids of the best round plus its density and the trace. */
  final case class DistPeelResult(best: Array[Long], density: Double, rounds: Seq[Round])

  /** Peels `edges` (canonical `src < dst`, `w` column) down to empty,
    * returning the densest intermediate vertex set. A round either stops or
    * leaves fewer vertices, so the peel ends within `n` rounds.
    */
  def densest(edges: DataFrame, eps: Double = 0.1): DistPeelResult = {
    var cur = edges.select("src", "dst", "w").localCheckpoint(true)
    var best: DataFrame = null
    var bestDensity = Double.NegativeInfinity
    val rounds = scala.collection.mutable.ArrayBuffer.empty[Round]
    var done = false
    while (!done) {
      val degrees = cur
        .select(col("src") as "v", col("w"))
        .unionAll(cur.select(col("dst") as "v", col("w")))
        .groupBy("v")
        .agg(sum("w") as "deg")
        .localCheckpoint(true)
      val agg = degrees.agg(count("*") as "n", sum("deg") as "degSum").collect()(0)
      val nV = agg.getLong(0)
      // an unchanged vertex count means the last threshold removed nobody,
      // which only happens when rho < 0 (it then sits below the average
      // degree); no progress is possible, so stop
      if (nV == 0 || rounds.lastOption.exists(_.size == nV)) done = true
      else {
        // W counts both orientations (paper convention), so W = sum of degrees
        // and rho = W/|S| is the average vertex degree
        val totalW = agg.getDouble(1)
        val rho = totalW / nV
        rounds += Round(nV, totalW, rho)
        if (rho > bestDensity) { bestDensity = rho; best = degrees }
        val keep = degrees.where(col("deg") > (1.0 + eps) * rho).select("v")
        cur = cur
          .join(keep.withColumnRenamed("v", "src"), Seq("src"))
          .join(keep.withColumnRenamed("v", "dst"), Seq("dst"))
          .select("src", "dst", "w")
          .localCheckpoint(true)
      }
    }
    // a single isolated vertex has density 0, so on graphs where every
    // intermediate density is negative the trivial empty/singleton answer wins
    if (bestDensity <= 0.0) DistPeelResult(Array.empty, 0.0, rounds.toSeq)
    else DistPeelResult(best.select("v").collect().map(_.getLong(0)), bestDensity, rounds.toSeq)
  }
}
