package repro.harness

import org.apache.spark.sql.DataFrame
import repro.baseline.EgoScan
import repro.core._
import repro.graph.{DiffGraph, GraphStats, WGraph}

/** Computations behind every table of the paper's evaluation section.
  *
  * Each `tableXX` method returns structured rows (asserted by the bench
  * suites) plus a `render` helper that prints them side by side with the
  * paper's published numbers (recorded in EXPERIMENTS.md).
  */
object Tables {

  private def ms[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  // ------------------------------------------------------------- Table II

  def tableII(sets: Seq[DiffSet]): Seq[(DiffSet, GraphStats)] =
    sets.map(ds => ds -> DiffGraph.stats(ds.df, ds.n))

  def renderII(rows: Seq[(DiffSet, GraphStats)]): String = {
    val header = f"${"Data"}%-8s ${"Setting"}%-9s ${"GD Type"}%-16s ${"n"}%8s ${"m+"}%9s ${"m-"}%9s ${"Max w"}%9s ${"Min w"}%9s ${"Avg w"}%9s"
    val body = rows.map { case (ds, s) =>
      f"${ds.data}%-8s ${ds.setting}%-9s ${ds.gdType}%-16s ${s.n}%8d ${s.mPos}%9d ${s.mNeg}%9d ${s.maxW}%9.3f ${s.minW}%9.3f ${s.avgW}%9.4f"
    }
    (header +: body).mkString("\n")
  }

  // ------------------------------------------------------- Tables III / IV

  /** One row of Table IV: a mined co-author group under one configuration. */
  final case class GroupRow(
      setting: String,
      gdType: String,
      measure: String, // "AvgDegree" | "Affinity"
      groupName: String, // matched planted group, or "?"
      members: Seq[(String, Double)], // (author, simplex weight); weight = NaN for AvgDegree
      size: Int,
      positiveClique: Boolean,
      avgDegreeDiff: Double,
      approxRatio: Double, // NaN for Affinity
      affinityDiff: Double, // NaN for AvgDegree
      edgeDensityDiff: Double,
  )

  private def matchPlanted(planted: Map[String, Seq[Int]], s: Seq[Int]): String =
    planted.collectFirst { case (name, ids) if ids.toSet == s.toSet => name }.getOrElse("?")

  def tableIII_IV(sets: Seq[DiffSet]): Seq[GroupRow] =
    sets.filter(_.data == "DBLP").flatMap { ds =>
      val g = ds.wg
      val ad = DCSGreedy.run(g)
      val ga = NewSea.run(g)
      val gaSet = ga.best.supportSet.toSeq
      Seq(
        GroupRow(ds.setting, ds.gdType, "AvgDegree",
          matchPlanted(ds.in.planted, ad.s.toSeq),
          ad.s.toSeq.map(u => (ds.in.label(u), Double.NaN)),
          ad.s.length, g.isPositiveClique(ad.s.toSeq),
          ad.density, ad.ratio, Double.NaN, g.edgeDensity(ad.s.toSeq)),
        GroupRow(ds.setting, ds.gdType, "Affinity",
          matchPlanted(ds.in.planted, gaSet),
          ga.best.embedding.map { case (u, w) => (ds.in.label(u), w) }.toSeq,
          gaSet.length, g.isPositiveClique(gaSet),
          g.density(gaSet), Double.NaN, ga.best.f, g.edgeDensity(gaSet)),
      )
    }

  def renderIII_IV(rows: Seq[GroupRow]): String = {
    val iv = rows.map { r =>
      f"${r.setting}%-9s ${r.gdType}%-13s ${r.measure}%-10s ${r.groupName}%-11s ${r.size}%4d " +
        f"${if (r.positiveClique) "Yes" else "No"}%-4s rho=${r.avgDegreeDiff}%8.3f ratio=${r.approxRatio}%5.2f " +
        f"f=${r.affinityDiff}%8.3f edgeDensity=${r.edgeDensityDiff}%8.3f"
    }
    val iii = rows.filter(_.measure == "Affinity").map { r =>
      s"  [${r.groupName}] " + r.members.map { case (a, w) => f"$a(${w}%.4f)" }.mkString(", ")
    } ++ rows.filter(_.measure == "AvgDegree").map { r =>
      s"  [${r.groupName}] " + r.members.map(_._1).mkString(", ")
    }
    ("Table IV rows:" +: iv) .mkString("\n") + "\n\nTable III groups:\n" + iii.distinct.mkString("\n")
  }

  // -------------------------------------------------------- Tables V / VI

  /** Top-k topics by graph affinity from an all-initializations run. */
  def topTopics(g: WGraph, label: Int => String, k: Int): Seq[(Seq[(String, Double)], Double)] = {
    val (_, cliques) = NewSea.allInits(g, useReplicator = false)
    cliques.take(k).map { r =>
      (r.embedding.map { case (u, w) => (label(u), w) }.toSeq, r.f)
    }
  }

  final case class TopicTables(
      emerging: Seq[(Seq[(String, Double)], Double)],
      disappearing: Seq[(Seq[(String, Double)], Double)],
      g1Top: Seq[(Seq[(String, Double)], Double)],
      g2Top: Seq[(Seq[(String, Double)], Double)],
  )

  def tableV_VI(sets: Seq[DiffSet]): TopicTables = {
    def gD(key: String) = sets.find(_.key == key).get.wg
    val dm = sets.find(_.data == "DM").get.in
    def single(g: DataFrame) = DiffGraph.toWGraph(DiffGraph.canonicalize(g), dm.n)
    TopicTables(
      emerging = topTopics(gD("DM/-/Emerging"), dm.label, 5),
      disappearing = topTopics(gD("DM/-/Disappearing"), dm.label, 5),
      g1Top = topTopics(single(dm.g1), dm.label, 5),
      g2Top = topTopics(single(dm.g2), dm.label, 5),
    )
  }

  def renderTopics(name: String, ts: Seq[(Seq[(String, Double)], Double)]): String =
    s"$name:\n" + ts.zipWithIndex.map { case ((kw, f), i) =>
      val topic = kw.map { case (w, x) => f"$w ($x%.2f)" }.mkString(", ")
      f"  ${i + 1}%d. {$topic%-58s} f=$f%.4f"
    }.mkString("\n")

  // ------------------------------------------------------------ Table VII

  final case class TimingRow(
      key: String,
      newSeaMs: Double, newSeaInits: Int, newSeaF: Double,
      seacdMs: Double, seacdF: Double,
      seaMs: Double, seaF: Double, seaErrors: Int,
  )

  def tableVII(sets: Seq[DiffSet]): Seq[TimingRow] =
    sets.map { ds =>
      val g = ds.wg
      // best-of-two to shield the (fast) NewSEA measurement from GC noise
      // left behind by other suites
      val (smart, tNew1) = ms(NewSea.run(g))
      val (_, tNew2) = ms(NewSea.run(g))
      val tNew = math.min(tNew1, tNew2)
      Console.err.println(f"[tableVII] ${ds.key}: NewSEA ${tNew}%.0fms (${smart.initsUsed} inits)")
      val (cd, tCd) = ms(NewSea.allInits(g, useReplicator = false))
      Console.err.println(f"[tableVII] ${ds.key}: SEACD+Refine ${tCd}%.0fms")
      val (sea, tSea) = ms(NewSea.allInits(g, useReplicator = true))
      Console.err.println(f"[tableVII] ${ds.key}: SEA+Refine ${tSea}%.0fms (${sea._1.errors} errors)")
      TimingRow(ds.key, tNew, smart.initsUsed, smart.best.f, tCd, cd._1.best.f, tSea, sea._1.best.f, sea._1.errors)
    }

  def renderVII(rows: Seq[TimingRow]): String = {
    val header = f"${"Config"}%-28s ${"NewSEA(ms)"}%11s ${"#inits"}%7s ${"SEACD+R(ms)"}%12s ${"SEA+R(ms)"}%10s ${"#SEAerr"}%8s ${"f(New)"}%9s ${"f(CD)"}%9s ${"f(SEA)"}%9s"
    val body = rows.map { r =>
      f"${r.key}%-28s ${r.newSeaMs}%11.1f ${r.newSeaInits}%7d ${r.seacdMs}%12.1f ${r.seaMs}%10.1f ${r.seaErrors}%8d ${r.newSeaF}%9.4f ${r.seacdF}%9.4f ${r.seaF}%9.4f"
    }
    (header +: body).mkString("\n")
  }

  // ----------------------------------------------------- Tables VIII / IX

  final case class EgoRow(
      setting: String, gdType: String,
      size: Int, edges: Int, positiveClique: Boolean,
      avgDegreeDiff: Double, edgeDensityDiff: Double,
      wEgo: Double, wDcsGreedy: Double, wNewSea: Double,
  )

  def tableVIII_IX(sets: Seq[DiffSet]): Seq[EgoRow] =
    sets.filter(_.data == "DBLP").map { ds =>
      val g = ds.wg
      val ego = EgoScan.run(g)
      val dcs = DCSGreedy.run(g)
      val ga = NewSea.run(g)
      EgoRow(ds.setting, ds.gdType,
        ego.s.length, g.inducedEdgeCount(ego.s.toSeq), g.isPositiveClique(ego.s.toSeq),
        g.density(ego.s.toSeq), g.edgeDensity(ego.s.toSeq),
        ego.totalWeight, g.inducedWeight(dcs.s.toSeq), g.inducedWeight(ga.best.supportSet.toSeq))
    }

  def renderVIII_IX(rows: Seq[EgoRow]): String = {
    val header = f"${"Setting"}%-9s ${"GD Type"}%-13s ${"#V"}%5s ${"#E"}%6s ${"Clique?"}%8s ${"rho_D"}%9s ${"edgeDen"}%9s | ${"W(Ego)"}%9s ${"W(DCSGr)"}%9s ${"W(NewSEA)"}%10s"
    val body = rows.map { r =>
      f"${r.setting}%-9s ${r.gdType}%-13s ${r.size}%5d ${r.edges}%6d ${if (r.positiveClique) "Yes" else "No"}%8s ${r.avgDegreeDiff}%9.3f ${r.edgeDensityDiff}%9.4f | ${r.wEgo}%9.1f ${r.wDcsGreedy}%9.1f ${r.wNewSea}%10.1f"
    }
    (header +: body).mkString("\n")
  }

  // -------------------------------------------- Appendix tables X through XIV

  final case class AdRow(key: String, algo: String, size: Int, avgDegree: Double,
                         ratio: Double, positiveClique: Boolean)

  /** Table XI/XII machinery: DCSGreedy vs Greedy(G_D) vs Greedy(G_{D+}),
    * every candidate evaluated by its average degree in `G_D`.
    */
  def dcsadComparison(ds: DiffSet): Seq[AdRow] = {
    val g = ds.wg
    val dcs = DCSGreedy.run(g)
    val gdOnly = Peeling.greedy(g)
    val gdpOnly = Peeling.greedy(g.positivePart)
    Seq(
      AdRow(ds.key, "DCSGreedy", dcs.s.length, dcs.density, dcs.ratio, g.isPositiveClique(dcs.s.toSeq)),
      AdRow(ds.key, "GD only", gdOnly.best.length, g.density(gdOnly.best.toSeq), Double.NaN,
        g.isPositiveClique(gdOnly.best.toSeq)),
      AdRow(ds.key, "GD+ only", gdpOnly.best.length, g.density(gdpOnly.best.toSeq), Double.NaN,
        g.isPositiveClique(gdpOnly.best.toSeq)),
    )
  }

  final case class GaRow(key: String, size: Int, f: Double, edgeDensity: Double)

  /** Tables X/XIII/XIV machinery: the affinity DCS of one configuration. */
  def dcsgaRow(ds: DiffSet): GaRow = {
    val g = ds.wg
    val r = NewSea.run(g)
    val s = r.best.supportSet.toSeq
    GaRow(ds.key, s.length, r.best.f, g.edgeDensity(s))
  }

  def renderAd(rows: Seq[AdRow]): String =
    rows.map { r =>
      f"${r.key}%-28s ${r.algo}%-10s #V=${r.size}%5d rho=${r.avgDegree}%9.3f ratio=${r.ratio}%5.2f clique=${if (r.positiveClique) "Yes" else "No"}"
    }.mkString("\n")

  def renderGa(rows: Seq[GaRow]): String =
    rows.map(r => f"${r.key}%-28s #V=${r.size}%5d f=${r.f}%9.4f edgeDensity=${r.edgeDensity}%9.4f").mkString("\n")
}
