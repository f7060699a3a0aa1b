package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import scala.collection.mutable
import scala.util.Random

/** Synthetic stand-ins for the paper's seven evaluation datasets.
  *
  * None of the real datasets (aminer DBLP, wikiconflict, Douban, the actor
  * network) is available offline, so each builder generates — deterministically
  * in a seed — a pair of graphs `(G1, G2)` whose difference graph matches the
  * paper's Table II statistics in shape (scaled vertex/edge counts, same sign
  * balance, same weight extremes) and contains *planted* contrast structures
  * playing the role of the real co-author groups / topics / user communities
  * the paper reports (DESIGN.md section 4 documents every substitution).
  *
  * Planted structures occupy the low vertex ids; background noise is generated
  * with Spark (`spark.range` + `xxhash64`-derived pseudo-randomness, so the
  * result is independent of partitioning).
  *
  * Graphs are emitted as `(src, dst, w1, w2)` rows; `g1`/`g2` project the
  * respective positive weights, so `DiffGraph.difference` sums records from
  * both graphs for the pairs they share.
  */
object SynthGraphs {

  /** A generated two-graph dataset.
    *
    * @param planted named ground-truth vertex groups (for recovery assertions)
    * @param label   rendering of a vertex id (author name / keyword)
    */
  final case class TwoGraphs(
      n: Int,
      pairs: DataFrame, // (src, dst, w1, w2)
      planted: Map[String, Seq[Int]],
      label: Int => String,
  ) {
    def g1: DataFrame = pairs.where(col("w1") > 0.0).select(col("src"), col("dst"), col("w1") as "w")
    def g2: DataFrame = pairs.where(col("w2") > 0.0).select(col("src"), col("dst"), col("w2") as "w")
  }

  // ---------------------------------------------------------------- helpers

  /** Local planted pairs -> DataFrame rows `(src, dst, w1, w2)`. */
  private def pairsDF(spark: SparkSession, rows: Seq[(Int, Int, Double, Double)]): DataFrame = {
    import spark.implicits._
    rows.map { case (u, v, w1, w2) => (math.min(u, v).toLong, math.max(u, v).toLong, w1, w2) }
      .toDF("src", "dst", "w1", "w2")
  }

  /** All pairs of a clique with weights drawn from `w: pairIndex => (w1, w2)`. */
  private def clique(ids: Seq[Int], w: Int => (Double, Double)): Seq[(Int, Int, Double, Double)] = {
    var k = 0
    val out = mutable.ArrayBuffer.empty[(Int, Int, Double, Double)]
    for (i <- ids.indices; j <- (i + 1) until ids.length) {
      val (a, b) = w(k)
      out += ((ids(i), ids(j), a, b))
      k += 1
    }
    out.toSeq
  }

  /** Erdos–Renyi community on `ids` with edge prob `p`; weights via `w`. */
  private def community(ids: Seq[Int], p: Double, seed: Long, w: Random => (Double, Double)): Seq[(Int, Int, Double, Double)] = {
    val rnd = new Random(seed)
    val out = mutable.ArrayBuffer.empty[(Int, Int, Double, Double)]
    for (i <- ids.indices; j <- (i + 1) until ids.length)
      if (rnd.nextDouble() < p) {
        val (a, b) = w(rnd)
        out += ((ids(i), ids(j), a, b))
      }
    out.toSeq
  }

  /** Background pairs generated in Spark: `count` pseudo-random pairs with ids
    * in `[lo, n)` and weights from `wExpr` (its arguments `u1`,`u2`,`u3` are
    * iid U[0,1) to build weight expressions from). Self-pairs are dropped and
    * duplicates collapsed to their lowest-`id` draw, so the realized count is
    * slightly below `count`. The `u`s depend on `id` alone, so they are
    * hashed for the kept draw only.
    */
  private def background(spark: SparkSession, count: Long, lo: Int, n: Int, seed: Long)(
      wExpr: (Column, Column, Column) => (Column, Column)
  ): DataFrame = {
    val range = (n - lo).toLong
    def hash(salt: Int) = xxhash64(col("id"), lit(seed + salt))
    def u(salt: Int) = pmod(hash(salt), lit(1000000L)).cast("double") / 1000000.0
    val (w1, w2) = wExpr(u(2), u(3), u(4))
    spark
      .range(count)
      .select((pmod(hash(0), lit(range)) + lo) as "a", (pmod(hash(1), lit(range)) + lo) as "b", col("id"))
      .where(col("a") =!= col("b"))
      .groupBy(least(col("a"), col("b")) as "src", greatest(col("a"), col("b")) as "dst")
      .agg(min(col("id")) as "id")
      .select(col("src"), col("dst"), w1 as "w1", w2 as "w2")
  }

  /** Background weights of a co-author pair (DBLP, DBLP-C): with probability
    * `pG1` the pair publishes more in `G1`, else in `G2`. The larger count is
    * 1 with probability `p1`, 2..4 up to `p4` and 5..8 beyond; the other
    * graph gets 1 in 30% of pairs and 0 otherwise.
    */
  private def coauthorCounts(pG1: Double, p1: Double, p4: Double)(u1: Column, u2: Column, u3: Column): (Column, Column) = {
    val mag = when(u2 < p1, 1.0)
      .when(u2 < p4, (u3 * 3).cast("int") + 2) // 2..4
      .otherwise((u3 * 4).cast("int") + 5) // 5..8
    val w1 = when(u1 < pG1, mag).otherwise(when(u3 < 0.3, 1.0).otherwise(0.0))
    val w2 = when(u1 < pG1, when(u3 < 0.3, 1.0).otherwise(0.0)).otherwise(mag)
    (w1.cast("double"), w2.cast("double"))
  }

  private def assemble(spark: SparkSession, n: Int,
                       plantedRows: Seq[(Int, Int, Double, Double)],
                       bg: DataFrame,
                       planted: Map[String, Seq[Int]],
                       label: Int => String = _.toString): TwoGraphs = {
    val p = pairsDF(spark, plantedRows)
    TwoGraphs(n, p.unionByName(bg), planted, label)
  }

  // ------------------------------------------------------------------ DBLP

  /** DBLP co-author graphs (Section VI-B). Planted groups mirror Table III:
    * UTA-ML (4), CMU Privacy & Security (7), Japan Robotics 1/2/3, the
    * Compiler & Software System group (22), plus a diffuse positive community
    * that an `W_D(S)`-maximizer (EgoScan) should prefer.
    */
  def dblp(spark: SparkSession, n: Int, bgPairs: Long, seed: Long = 42): TwoGraphs = {
    // ids: 0-3 UTA | 4-10 CMU | 11-16 robotics core | 17 Morisawa | 18-19 Fukuda/Arai
    //      20-41 compiler | 42-161 positive community | rest background
    val uta = 0 to 3
    val cmu = 4 to 10
    val robo1 = 11 to 16
    val robo3 = 11 to 17
    val robo2 = Seq(18, 19)
    val compiler = 20 to 41
    val communityIds = 42 to 161

    // sum 163 -> rho = 2*163/4 = 81.5; the near-symmetric split keeps the
    // interior KKT point feasible so the affinity DCS is the full 4-clique
    // (f ~ 23.8, paper: 23.167); the weak (2,3) pair maps to 1 under the
    // Discrete setting so CMU wins Discrete Emerging cleanly (Table IV)
    val utaDiffs = Array(46.0, 28, 28, 28, 29, 4)
    val roboDiffs = Array(40.0, 36, 34, 32, 30, 30, 28, 28, 26, 26, 24, 24, 22, 25, 24) // sum 429 -> rho = 143
    val rows = mutable.ArrayBuffer.empty[(Int, Int, Double, Double)]
    rows ++= clique(uta, k => (2.0, 2.0 + utaDiffs(k)))
    rows ++= clique(cmu, k => (0.0, if (k % 2 == 0) 5.0 else 6.0))
    rows ++= clique(robo1, k => (roboDiffs(k), 0.0))
    rows ++= robo1.map(u => (u, 17, 5.0, 0.0)) // Morisawa joins the core with 5 early co-papers
    rows += ((18, 19, 102.0, 2.0)) // Fukuda-Arai: diff -100, Table II's extreme
    rows ++= clique(compiler, k => if (k % 46 == 0) (5.0, 0.0) else (2.0, 0.0)) // 6 pairs at -5, rest -2
    rows ++= community(communityIds, 0.1, seed, r => (0.0, 1.0 + r.nextInt(3))) // diffs +1..+3

    // embed the planted structures in the network: sparse low-weight cross
    // edges into the background, so ego-net methods (EgoScan) can grow past
    // a planted group the way they do on the real co-author graph
    val crossRnd = new Random(seed + 7)
    for (u <- 0 to 161; _ <- 0 until 6) {
      val v = 162 + crossRnd.nextInt(n - 162)
      val mag = (1 + crossRnd.nextInt(3)).toDouble
      rows += (if (crossRnd.nextBoolean()) (u, v, 0.0, mag) else (u, v, mag, 0.0))
    }

    // background co-author diffs: integer counts, mostly small; positive diffs
    // are 1 two-thirds of the time (so the Discrete mapping drops them, as in
    // Table II where discrete m+ is a third of weighted m+)
    val bg = background(spark, bgPairs, 162, n, seed)(coauthorCounts(0.5, 0.66, 0.91))

    val names = Map(
      0 -> "Feiping Nie", 1 -> "Heng Huang", 2 -> "Chris H. Q. Ding", 3 -> "Hua Wang",
      4 -> "Lorrie Faith Cranor", 5 -> "Nicolas Christin", 6 -> "Blase Ur", 7 -> "Richard Shay",
      8 -> "Saranga Komanduri", 9 -> "Michelle L. Mazurek", 10 -> "Lujo Bauer",
      11 -> "Kensuke Harada", 12 -> "Kiyoshi Fujiwara", 13 -> "Fumio Kanehiro",
      14 -> "Hirohisa Hirukawa", 15 -> "Shuuji Kajita", 16 -> "Kenji Kaneko",
      17 -> "Mitsuharu Morisawa", 18 -> "Toshio Fukuda", 19 -> "Fumihito Arai",
    )
    assemble(spark, n, rows.toSeq, bg,
      Map("UTA-ML" -> uta, "CMU" -> cmu, "Robotics1" -> robo1, "Robotics2" -> robo2,
          "Robotics3" -> robo3, "Compiler" -> compiler, "Community" -> communityIds),
      u => names.getOrElse(u, if (u <= 41) s"Compiler-${u - 20}" else s"author$u"))
  }

  // -------------------------------------------------------------------- DM

  /** Keyword vocabulary for the planted DM topics (ids 0..30). */
  val dmVocab: Array[String] = Array(
    "social", "networks", "large", "scale", "matrix", "factorization",
    "semi", "supervised", "learning", "unsupervised", "feature", "selection",
    "time", "series", "mining", "association", "rules", "knowledge", "discovery",
    "support", "vector", "machines", "logic", "inductive", "programming",
    "intrusion", "detection", "decision", "trees", "nearest", "neighbor",
  )

  /** DM keyword-association graphs (Section VI-C). Edge weight = 100 x the
    * fraction of titles containing both keywords; planted weights are chosen
    * so the emerging/disappearing/single-graph top-5 lists of Tables V and VI
    * come out in the paper's order (EXPERIMENTS.md discusses the one
    * inconsistency in the paper's own Table VI).
    */
  def dm(spark: SparkSession, n: Int, bgPairs: Long, seed: Long = 7): TwoGraphs = {
    val rows = Seq(
      // (u, v, w1, w2) — w = 100 x co-occurrence rate in that period's titles
      (0, 1, 0.3, 2.288), // social networks          diff +1.988 (Table II max w)
      (2, 3, 0.2, 2.08), // large scale               diff +1.88
      (4, 5, 0.05, 1.6), // matrix factorization      diff +1.55
      (6, 7, 0.15, 1.57), (6, 8, 0.15, 0.95), (7, 8, 0.15, 0.95), // semi supervised learning
      (9, 10, 0.0, 0.95), (9, 11, 0.0, 0.9), (10, 11, 1.85, 1.95), // unsupervised feature selection
      (12, 13, 2.370, 2.098), // time series: hot in both, cooling (1.185 -> 1.049)
      (14, 15, 3.4, 0.0), (15, 16, 5.997, 0.0), (14, 16, 3.4, 0.0), // mining association rules
      (17, 18, 2.5, 0.0), // knowledge discovery
      (19, 20, 2.2, 0.3), (20, 21, 2.0, 0.3), (19, 21, 0.9, 0.1), // support vector machines
      (22, 23, 1.1, 0.0), (22, 24, 1.6, 0.0), (23, 24, 1.3, 0.0), // inductive logic programming
      (25, 26, 1.6, 0.1), // intrusion detection
      (27, 28, 1.7, 0.6), // decision trees
      (29, 30, 1.6, 0.4), // nearest neighbor
    )
    // background co-occurrence: weights <= 0.5 so planted topics dominate;
    // 60% of pairs G2-only / 25% G1-only / 15% both, giving m+ ~ 2 m-
    val bg = background(spark, bgPairs, 31, n, seed) { (u1, u2, u3) =>
      val wA = u2 * 0.45 + 0.05
      val wB = u3 * 0.45 + 0.05
      val w1 = when(u1 < 0.25, wA).when(u1 >= 0.40, lit(0.0)).otherwise(wA)
      val w2 = when(u1 < 0.25, lit(0.0)).when(u1 >= 0.40, wB).otherwise(wB)
      (w1, w2)
    }
    assemble(spark, n, rows, bg,
      Map(
        "social networks" -> Seq(0, 1), "large scale" -> Seq(2, 3),
        "matrix factorization" -> Seq(4, 5), "semi supervised learning" -> Seq(6, 7, 8),
        "unsupervised feature selection" -> Seq(9, 10, 11), "time series" -> Seq(12, 13),
        "association rules" -> Seq(14, 15, 16), "knowledge discovery" -> Seq(17, 18),
        "support vector machines" -> Seq(19, 20, 21), "inductive logic programming" -> Seq(22, 23, 24),
        "intrusion detection" -> Seq(25, 26), "decision trees" -> Seq(27, 28),
        "nearest neighbor" -> Seq(29, 30), "feature selection" -> Seq(10, 11),
      ),
      u => if (u < dmVocab.length) dmVocab(u) else s"kw$u")
  }

  // ------------------------------------------------------------------ Wiki

  /** Wikipedia editor interaction graphs (Appendix B-1). `G1` = positive
    * interactions, `G2` = negative interactions; the Consistent difference
    * graph is `G1 - G2`. Planted: a consistent 5-clique (affinity winner), a
    * conflicting 6-clique, a -12.46 extreme pair, and two large random
    * communities that dominate under average degree.
    */
  def wiki(spark: SparkSession, n: Int, bgPairs: Long, seed: Long = 11): TwoGraphs = {
    val cons5 = 0 to 4
    val conf6 = 5 to 10
    val extreme = Seq(11, 12)
    val consComm = 13 to 102 // 90 editors, dense positive interactions
    val confComm = 103 to 162 // 60 editors, dense conflicts
    val cons5W = Array(9.619, 9.2, 9.0, 8.8, 8.7, 8.6, 8.5, 8.4, 8.2, 8.0) // sum 86 -> f ~ 6.88
    val conf6W = Array(8.5, 8.3, 8.2, 8.0, 7.9, 7.8, 7.8, 7.7, 7.7, 7.6, 7.6, 7.5, 7.5, 7.0, 6.9) // sum 116 -> f ~ 6.44
    val rows = mutable.ArrayBuffer.empty[(Int, Int, Double, Double)]
    rows ++= clique(cons5, k => (cons5W(k), 0.0)) // w1 = positive interactions
    rows ++= clique(conf6, k => (0.0, conf6W(k))) // w2 = conflicts
    rows += ((11, 12, 0.0, 12.46)) // the most conflicted pair (Table II min w)
    rows ++= community(consComm, 0.4, seed, r => (2.0 + r.nextDouble() * 2.0, 0.0))
    rows ++= community(confComm, 0.4, seed + 1, r => (0.0, 2.0 + r.nextDouble() * 2.0))
    // background: negative interactions are ~1.65x more common (m- > m+ in
    // the Consistent orientation), weights up to ~6
    val bg = background(spark, bgPairs, 163, n, seed) { (u1, u2, u3) =>
      val mag = pow(u2, 6.0) * 9.4 + 0.2 // avg ~1.5, max 9.6 < the planted 9.619
      val w1 = when(u1 < 0.38, mag).otherwise(when(u3 < 0.15, u3 * 2).otherwise(0.0))
      val w2 = when(u1 < 0.38, when(u3 < 0.15, u3 * 2).otherwise(0.0)).otherwise(mag)
      (w1, w2)
    }
    assemble(spark, n, rows.toSeq, bg,
      Map("Consistent5" -> cons5, "Conflicting6" -> conf6, "ExtremePair" -> extreme,
          "ConsistentCommunity" -> consComm, "ConflictingCommunity" -> confComm))
  }

  // ---------------------------------------------------------------- Douban

  /** Douban social-vs-interest graphs (Appendix B-2). `G1` = social network,
    * `G2` = interest-similarity network; all weights are 1. Planted cliques
    * are sized so the graph-affinity optimum matches the paper *exactly* via
    * Motzkin-Straus (`f = 1 - 1/k`): Movie 32/18, Book 14/22.
    */
  def douban(spark: SparkSession, interest: String, n: Int, seed: Long = 23): TwoGraphs = {
    val movie = interest == "Movie"
    val (isCliqueK, siCliqueK) = if (movie) (32, 18) else (14, 22)
    val isClique = 0 until isCliqueK // interest clique
    val siClique = isCliqueK until (isCliqueK + siCliqueK) // social clique
    val isCommIds = 50 until (if (movie) 550 else 110) // interest community
    val siCommIds = 550 until (if (movie) 1250 else 1350) // social community
    val (isP, siP) = if (movie) (0.1, 0.05) else (0.3, 0.04)
    val rows = mutable.ArrayBuffer.empty[(Int, Int, Double, Double)]
    rows ++= clique(isClique, _ => (0.0, 1.0))
    rows ++= clique(siClique, _ => (1.0, 0.0))
    rows ++= community(isCommIds, isP, seed, _ => (0.0, 1.0))
    rows ++= community(siCommIds, siP, seed + 1, _ => (1.0, 0.0))
    // background: social edges heavily outnumber interest edges; ~6% of pairs
    // are in both graphs (diff 0 -> dropped by the difference)
    val (bgPairs, interestFrac) = if (movie) (115000L, 0.20) else (100000L, 0.11)
    val bg = background(spark, bgPairs, 1350, n, seed) { (u1, _, u3) =>
      val w1 = when(u1 < interestFrac, when(u3 < 0.06, 1.0).otherwise(0.0)).otherwise(1.0)
      val w2 = when(u1 < interestFrac, 1.0).otherwise(when(u3 < 0.06, 1.0).otherwise(0.0))
      (w1.cast("double"), w2.cast("double"))
    }
    assemble(spark, n, rows.toSeq, bg,
      Map("InterestClique" -> isClique, "SocialClique" -> siClique,
          "InterestCommunity" -> isCommIds, "SocialCommunity" -> siCommIds),
      u => s"user$u")
  }

  // ---------------------------------------------------------------- DBLP-C

  /** DBLP-C: large timestamped co-author graph split in two halves
    * (Appendix B-3). Planted: a +400 pair (the Weighted affinity winner,
    * f = 200), a 26-clique of diff ~6 (the Discrete winner, f ~ 1.92), and a
    * -186 extreme pair.
    */
  def dblpC(spark: SparkSession, n: Int, bgPairs: Long, seed: Long = 31): TwoGraphs = {
    val heavyPair = Seq(0, 1)
    val clique26 = 2 to 27
    val rows = mutable.ArrayBuffer.empty[(Int, Int, Double, Double)]
    rows += ((0, 1, 2.0, 402.0)) // diff +400 (Table II max w)
    rows ++= clique(clique26, k => (1.0, if (k % 5 == 0) 8.0 else 7.0)) // diffs 6..7 -> Discrete 2
    rows += ((28, 29, 188.0, 2.0)) // diff -186 (Table II min w)
    val bg = background(spark, bgPairs, 30, n, seed)(coauthorCounts(0.48, 0.60, 0.90))
    assemble(spark, n, rows.toSeq, bg,
      Map("HeavyPair" -> heavyPair, "Clique26" -> clique26))
  }

  // ----------------------------------------------------------------- Actor

  /** Actor collaboration network (Appendix B-3): used directly as a
    * difference graph with only positive weights (`G1` empty). Planted: a
    * heavy triangle (216/150/120 — the Weighted winner, f ~ 108) and a
    * 21-clique of mid-weight edges (the winner once weights are capped at 10).
    */
  def actor(spark: SparkSession, n: Int, bgPairs: Long, seed: Long = 57): TwoGraphs = {
    val tri = Seq(0, 1, 2)
    val clique21 = 3 to 23
    val triW = Array(216.0, 150.0, 120.0)
    val rows = mutable.ArrayBuffer.empty[(Int, Int, Double, Double)]
    rows ++= clique(tri, k => (0.0, triW(k)))
    // all pair weights >= 10: the Discrete cap makes them uniform (10), so by
    // Motzkin-Straus the *full* 21-clique is the capped optimum (f = 9.52)
    // rather than any heavy sub-clique
    rows ++= clique(clique21, k => (0.0, 11.0 + (k % 10)))
    // collaboration counts: mostly 1, occasionally larger (avg ~ 1.15,
    // paper: 1.101); the 0.5% heavy tail is what the Discrete cap bites on
    val bg = background(spark, bgPairs, 24, n, seed) { (_, u2, u3) =>
      val w2 = when(u2 < 0.95, 1.0)
        .when(u2 < 0.995, (u3 * 3).cast("int") + 2)
        .otherwise((u3 * 20).cast("int") + 10)
      (lit(0.0), w2.cast("double"))
    }
    assemble(spark, n, rows.toSeq, bg,
      Map("Triangle" -> tri, "Clique21" -> clique21),
      u => s"actor$u")
  }
}
