package repro.graph

import org.apache.spark.sql.DataFrame
import repro.{Configs, Oracle, SparkSpec, TestKit}

class DiffGraphSpec extends SparkSpec {

  import org.apache.spark.sql.functions._

  private def df(rows: Seq[(Long, Long, Double)]): DataFrame = {
    import spark.implicits._
    rows.toDF("src", "dst", "w")
  }

  private lazy val g1 = df(Seq((1L, 2L, 3.0), (2L, 3L, 1.0), (4L, 1L, 2.0), (5L, 6L, 2.5)))
  private lazy val g2 = df(Seq((2L, 1L, 5.0), (3L, 2L, 1.0), (1L, 4L, 0.5), (6L, 7L, 4.0)))

  test("canonicalize orients src<dst, merges duplicates, drops self loops and zeros") {
    val messy = df(Seq((2L, 1L, 1.0), (1L, 2L, 2.0), (3L, 3L, 9.0), (4L, 5L, 1.0), (5L, 4L, -1.0)))
    val out = DiffGraph.canonicalize(messy).collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    assert(out.toSet == Set((1L, 2L, 3.0)))
  }

  // Each graph has repeated records in both orientations (and identical ones),
  // a self loop and a pair that cancels only once its duplicates are summed;
  // (1,2) and (7,8) cancel across the graphs at alpha = 2, (2,6) at alpha = 1.
  // Dyadic weights keep every sum exact.
  private lazy val g1dup = df(Seq((1L, 2L, 0.5), (2L, 1L, 0.75), (3L, 3L, 2.0), (4L, 5L, 1.5), (5L, 4L, -1.5),
                                  (2L, 6L, 0.25), (6L, 2L, 0.25), (8L, 7L, 0.25), (7L, 8L, 0.25), (1L, 3L, 0.5), (1L, 3L, 0.5)))
  private lazy val g2dup = df(Seq((2L, 1L, 1.25), (1L, 2L, 1.25), (5L, 5L, 4.0), (3L, 4L, 0.5), (4L, 3L, -0.5),
                                  (6L, 2L, 0.5), (7L, 8L, 0.5), (8L, 7L, 0.5), (4L, 5L, 2.0), (9L, 10L, -0.75), (9L, 10L, -0.75)))

  test("difference matches DuckDB full-outer-join semantics (oracle)") {
    // the reference: canonicalize each graph on its own, then join them
    def side(table: String): String =
      s"""SELECT LEAST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS src,
         |       GREATEST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS dst, SUM(CAST(w AS DOUBLE)) AS w
         |FROM $table WHERE CAST(src AS BIGINT) <> CAST(dst AS BIGINT) GROUP BY 1, 2""".stripMargin
    def fullOuterJoin(alpha: Double): String =
      s"""SELECT COALESCE(e2.src, e1.src) AS src, COALESCE(e2.dst, e1.dst) AS dst,
         |       COALESCE(e2.w, 0) - $alpha * COALESCE(e1.w, 0) AS w
         |FROM (${side("g2raw")}) e2
         |FULL OUTER JOIN (${side("g1raw")}) e1
         |USING (src, dst)
         |WHERE COALESCE(e2.w, 0) - $alpha * COALESCE(e1.w, 0) <> 0
         |""".stripMargin
    for ((a, b, alpha) <- Seq((g1, g2, 1.0), (g1dup, g2dup, 1.0), (g1dup, g2dup, 2.0)))
      Oracle.assertEquivalent(
        DiffGraph.difference(a, b, alpha).select(col("src"), col("dst"), col("w")),
        fullOuterJoin(alpha),
        "g1raw" -> a, "g2raw" -> b,
      )
  }

  test("difference is one aggregation over the signed union: no join in its plan") {
    import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join}
    val plan = DiffGraph.difference(g1, g2).queryExecution.optimizedPlan
    assert(plan.collect { case j: Join => j }.isEmpty, plan.treeString)
    assert(plan.collect { case a: Aggregate => a }.size == 1, plan.treeString)
  }

  test("difference drops exactly-cancelling edges") {
    val diff = DiffGraph.difference(g1, g2).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    assert(!diff.contains((2L, 3L))) // 1.0 - 1.0 = 0
    assert(diff((1L, 2L)) == 2.0)
    assert(diff((1L, 4L)) == -1.5)
    assert(diff((5L, 6L)) == -2.5)
    assert(diff((6L, 7L)) == 4.0)
  }

  test("alpha-generalized difference scales G1 (Section III-D)") {
    val diff = DiffGraph.difference(g1, g2, alpha = 2.0).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    assert(diff((1L, 2L)) == 5.0 - 6.0)
    assert(diff((2L, 3L)) == 1.0 - 2.0)
  }

  test("positivePart and negate") {
    val diff = DiffGraph.difference(g1, g2)
    val pos = DiffGraph.positivePart(diff).collect().map(_.getDouble(2))
    assert(pos.forall(_ > 0))
    val neg = DiffGraph.negate(diff).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    assert(neg((1L, 2L)) == -2.0)
    assert(neg((5L, 6L)) == 2.5)
  }

  test("discretize implements the Section VI-B mapping with drops") {
    val diff = df(Seq((1L, 2L, 6.0), (1L, 3L, 4.9), (1L, 4L, 2.0), (1L, 5L, 1.0),
                      (1L, 6L, -1.0), (1L, 7L, -3.9), (1L, 8L, -4.0), (1L, 9L, -10.0)))
    val out = DiffGraph.discretize(diff).collect()
      .map(r => (r.getLong(1), r.getDouble(2))).toMap
    assert(out == Map(2L -> 2.0, 3L -> 1.0, 4L -> 1.0, 6L -> -1.0, 7L -> -1.0, 8L -> -2.0, 9L -> -2.0))
  }

  test("discretizeAll preserves every edge with its sign") {
    val diff = df(Seq((1L, 2L, 6.0), (1L, 3L, 0.5), (1L, 4L, -0.5), (1L, 5L, -9.0)))
    val out = DiffGraph.discretizeAll(diff).collect()
      .map(r => (r.getLong(1), r.getDouble(2))).toMap
    assert(out == Map(2L -> 2.0, 3L -> 1.0, 4L -> -1.0, 5L -> -2.0))
  }

  test("capWeights caps from above only") {
    val diff = df(Seq((1L, 2L, 30.0), (1L, 3L, 5.0), (1L, 4L, -2.0)))
    val out = DiffGraph.capWeights(diff, 10.0).collect().map(_.getDouble(2)).toSet
    assert(out == Set(10.0, 5.0, -2.0))
  }

  test("stats computes the Table II row (oracle-checked aggregates)") {
    val diff = DiffGraph.difference(g1, g2)
    val s = DiffGraph.stats(diff, nVertices = 7)
    assert(s.n == 7)
    assert(s.mPos == 2) // (1,2)=+2, (6,7)=+4
    assert(s.mNeg == 2) // (1,4)=-1.5, (5,6)=-2.5
    assert(s.maxW == 4.0)
    assert(s.minW == -2.5)
    assert(math.abs(s.avgW - (2.0 + 4.0 - 1.5 - 2.5) / 4) < 1e-12)

    Oracle.assertEquivalent(
      diff.agg(
        sum(when(col("w") > 0, 1L).otherwise(0L)) as "mpos",
        sum(when(col("w") < 0, 1L).otherwise(0L)) as "mneg",
        max(col("w")) as "maxw",
        min(col("w")) as "minw",
        avg(col("w")) as "avgw",
      ),
      """SELECT SUM(CASE WHEN CAST(w AS DOUBLE) > 0 THEN 1 ELSE 0 END) AS mpos,
        |       SUM(CASE WHEN CAST(w AS DOUBLE) < 0 THEN 1 ELSE 0 END) AS mneg,
        |       MAX(CAST(w AS DOUBLE)) AS maxw, MIN(CAST(w AS DOUBLE)) AS minw,
        |       AVG(CAST(w AS DOUBLE)) AS avgw
        |FROM diff""".stripMargin,
      "diff" -> diff,
    )
  }

  test("stats of an empty difference graph") {
    val empty = DiffGraph.difference(g1, g1)
    val s = DiffGraph.stats(empty, 10)
    assert(s == GraphStats(10, 0, 0, 0.0, 0.0, 0.0))
  }

  test("toWGraph/toDF round trip") {
    val diff = DiffGraph.difference(g1, g2)
    val g = DiffGraph.toWGraph(diff, 8)
    assert(g.weight(1, 2) == 2.0)
    assert(g.weight(1, 4) == -1.5)
    assert(g.weight(6, 7) == 4.0)
    assert(g.numEdges == 4)
    val back = TestKit.toDF(spark, g)
    val rows = back.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSet
    assert(rows == diff.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSet)
  }

  test("difference graph via Spark equals local subtraction on DBLP") {
    val ds = Configs.byKey(Configs.tiny, "DBLP/Weighted/Emerging")
    val gD = ds.wg
    // spot-check: a planted pair and a background edge
    assert(gD.weight(0, 1) == 46.0)
    assert(gD.weight(18, 19) == -100.0)
    val total = DiffGraph.stats(ds.df, ds.n)
    assert(total.mPos.toInt + total.mNeg.toInt == gD.numEdges)
    // sum w2 - sum w1 per canonical pair of the raw records, zeros dropped
    val sums = ds.in.pairs
      .select(col("src").cast("long"), col("dst").cast("long"), col("w1").cast("double"), col("w2").cast("double"))
      .collect().toSeq
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getDouble(2), r.getDouble(3)))
      .filter { case (u, v, _, _) => u != v }
      .groupMapReduce { case (u, v, _, _) => (u min v, u max v) } { case (_, _, w1, w2) => (w1, w2) } {
        case ((a1, a2), (b1, b2)) => (a1 + b1, a2 + b2)
      }
    val local = WGraph(ds.n, sums.toSeq.collect { case ((u, v), (s1, s2)) if s2 - s1 != 0.0 => (u, v, s2 - s1) })
    assert(local.offsets.sameElements(gD.offsets))
    assert(local.nbrs.sameElements(gD.nbrs))
    assert(local.wts.sameElements(gD.wts))
  }

  test("toWGraph rejects vertex ids outside [0, n)") {
    // 2^32 + 5 would narrow to vertex 5; 8 is one past the last vertex
    for (bad <- Seq((1L << 32) + 5L, 8L, -1L)) {
      val e = intercept[IllegalArgumentException] {
        DiffGraph.toWGraph(df(Seq((1L, 2L, 1.0), (3L, bad, 2.0))), 8)
      }
      assert(e.getMessage.contains(s"vertex id $bad"), e.getMessage)
    }
  }

  test("toWGraph rejects a NaN weight, naming the pair") {
    val e = intercept[IllegalArgumentException] {
      DiffGraph.toWGraph(df(Seq((1L, 2L, 1.0), (3L, 4L, Double.NaN))), 8)
    }
    assert(e.getMessage.contains("weight NaN of (3, 4) is not finite"), e.getMessage)
  }

  test("degree aggregation agrees with DuckDB (oracle)") {
    val diff = DiffGraph.difference(g1, g2)
    val degrees = diff
      .select(col("src") as "v", col("w"))
      .unionAll(diff.select(col("dst") as "v", col("w")))
      .groupBy("v").agg(sum("w") as "deg")
    Oracle.assertEquivalent(
      degrees,
      """SELECT v, SUM(w) AS deg FROM (
        |  SELECT CAST(src AS BIGINT) AS v, CAST(w AS DOUBLE) AS w FROM diff
        |  UNION ALL
        |  SELECT CAST(dst AS BIGINT) AS v, CAST(w AS DOUBLE) AS w FROM diff
        |) GROUP BY v""".stripMargin,
      "diff" -> diff,
    )
  }
}
