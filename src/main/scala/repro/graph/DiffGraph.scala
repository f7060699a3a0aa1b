package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Statistics of a difference graph, one row of the paper's Table II.
  *
  * @param n         number of vertices in the universe
  * @param mPos      number of edges with positive weight
  * @param mNeg      number of edges with negative weight
  * @param maxW      maximum edge weight
  * @param minW      minimum edge weight
  * @param avgW      average edge weight over all edges of `G_D`
  */
final case class GraphStats(n: Long, mPos: Long, mNeg: Long, maxW: Double, minW: Double, avgW: Double)

/** DataFrame construction and analysis of difference graphs.
  *
  * Edge lists are DataFrames with schema `(src: Long, dst: Long, w: Double)`.
  * All operators here canonicalize to `src < dst` with one row per undirected
  * edge, so downstream counts treat each edge once — matching the `W(S) =
  * sum over (u,v) in E(S)` convention of the paper.
  */
object DiffGraph {

  /** Canonicalizes an undirected edge list: orients each pair as `src < dst`,
    * sums weights of duplicate records, and drops self loops and zero-weight
    * results.
    */
  def canonicalize(edges: DataFrame): DataFrame =
    edges
      .where(col("src") =!= col("dst"))
      .select(
        least(col("src"), col("dst")) as "src",
        greatest(col("src"), col("dst")) as "dst",
        col("w"),
      )
      .groupBy("src", "dst")
      .agg(sum("w") as "w")
      .where(col("w") =!= 0.0)

  /** Builds the difference graph `G_D` with `D = A2 - alpha * A1` (Section
    * III-D generalization; `alpha = 1` is the standard `A2 - A1`) by one
    * aggregation over the signed union: `canonicalize` of the `g2` records and
    * the `g1` records with `w` replaced by `-alpha * w`.
    *
    * Edges whose difference is exactly 0 are dropped, matching
    * `E_D = {(u,v) | D(u,v) != 0}`. A pair given by several non-integer
    * records may round differently in the last ulp (sums run in Spark's order).
    */
  def difference(g1: DataFrame, g2: DataFrame, alpha: Double = 1.0): DataFrame =
    canonicalize(g2.unionByName(g1.withColumn("w", lit(-alpha) * col("w"))))

  /** Keeps only the positive-weight edges (`G_{D+}`). */
  def positivePart(diff: DataFrame): DataFrame = diff.where(col("w") > 0.0)

  /** Flips every edge weight (Emerging `G_D` <-> Disappearing `G_D`). */
  def negate(diff: DataFrame): DataFrame =
    diff.select(col("src"), col("dst"), (-col("w")) as "w")

  /** The paper's Discrete weight mapping for the DBLP experiment:
    * `d >= 5 -> 2`, `2 <= d < 5 -> 1`, `-4 < d < 0 -> -1`, `d <= -4 -> -2`;
    * only edges with `0 < d < 2` are dropped. The mapping follows Section
    * VI-B verbatim: the gap maps to 0 and the edge is removed.
    */
  def discretize(diff: DataFrame): DataFrame =
    diff
      .select(
        col("src"),
        col("dst"),
        when(col("w") >= 5.0, 2.0)
          .when(col("w") >= 2.0, 1.0)
          .when(col("w") <= -4.0, -2.0)
          .when(col("w") < 0.0, -1.0)
          .otherwise(0.0) as "w",
      )
      .where(col("w") =!= 0.0)

  /** Sign-preserving discretization used for DBLP-C, where Table II shows
    * identical edge counts in the Weighted and Discrete settings: positive
    * weights map to `1` (`< 5`) or `2` (`>= 5`), negatives to `-1` (`> -4`)
    * or `-2` (`<= -4`); no edge is dropped.
    */
  def discretizeAll(diff: DataFrame): DataFrame =
    diff.select(
      col("src"),
      col("dst"),
      when(col("w") >= 5.0, 2.0)
        .when(col("w") > 0.0, 1.0)
        .when(col("w") <= -4.0, -2.0)
        .otherwise(-1.0) as "w",
    )

  /** Caps weights at `cap` (the Actor Discrete setting: `D(u,v) = 10` if the
    * original weight exceeds 10).
    */
  def capWeights(diff: DataFrame, cap: Double): DataFrame =
    diff.select(col("src"), col("dst"), least(col("w"), lit(cap)) as "w")

  /** Computes the Table II statistics row for a difference graph. */
  def stats(diff: DataFrame, nVertices: Long): GraphStats = {
    val row = diff
      .agg(
        sum(when(col("w") > 0, 1L).otherwise(0L)) as "mPos",
        sum(when(col("w") < 0, 1L).otherwise(0L)) as "mNeg",
        max(col("w")) as "maxW",
        min(col("w")) as "minW",
        avg(col("w")) as "avgW",
      )
      .collect()(0)
    if (row.isNullAt(0))
      GraphStats(nVertices, 0L, 0L, 0.0, 0.0, 0.0)
    else
      GraphStats(nVertices, row.getLong(0), row.getLong(1), row.getDouble(2), row.getDouble(3), row.getDouble(4))
  }

  /** Collects a canonical edge-list DataFrame into the local CSR kernel.
    *
    * Vertex ids must lie in `[0, n)`; any other id fails fast. This is the
    * hand-off point between the data-parallel graph-construction phase and
    * the driver-side local-search algorithms (SEACD/NewSEA/Refinement), whose
    * working sets are tiny.
    */
  def toWGraph(diff: DataFrame, n: Int): WGraph = {
    import diff.sparkSession.implicits._
    val rows = diff.select(col("src").cast("long"), col("dst").cast("long"), col("w").cast("double"))
      .as[(Long, Long, Double)].collect()
    def vertex(id: Long): Int = {
      require(id >= 0 && id < n, s"vertex id $id outside [0, $n)")
      id.toInt
    }
    WGraph.fromEdges(n, rows.map(r => vertex(r._1)), rows.map(r => vertex(r._2)), rows.map(_._3))
  }
}
