package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.SynthGraphs
import repro.graph.{DiffGraph, GraphStats, WGraph}
import repro.harness.{Datasets, Sizes}

import scala.collection.mutable
import scala.util.control.NonFatal

/** One difference-graph configuration (a row of Table II). */
final case class Config(key: String, n: Int, df: DataFrame)

/** A graph handed to the local kernel, with the key of its configuration. */
final case class Graph(key: String, g: WGraph)

/** Operations attempted and failed, with the reason of each failure.
  *
  * An operation is one call of a layer on one configuration, which fails if
  * it throws, or one check of an output, which fails if it does not hold.
  */
final class Ledger {
  var attempted = 0
  val failures = mutable.ArrayBuffer.empty[String]
  def failed: Int = failures.size

  def op[T](what: String)(body: => T): Option[T] = {
    attempted += 1
    try Some(body)
    catch { case NonFatal(e) => failures += s"$what: threw $e"; None }
  }

  def check(what: String, ok: Boolean, detail: => String): Unit = {
    attempted += 1
    if (!ok) failures += s"$what: $detail"
  }
}

/** The seven generated input pairs and the 16 configurations built on them,
  * as `repro.harness.Datasets.build` builds them, with the workload seed
  * passed to every `SynthGraphs` dataset function. This is a copy of that
  * construction because `Datasets.build` takes no seed and generates its
  * own inputs; a change to `Datasets.build` does not reach the benchmark.
  */
object Inputs {

  val names: Seq[String] = Seq("DBLP", "DM", "Wiki", "Movie", "Book", "DBLP-C", "Actor")

  /** Generates the input pairs and materializes them in Spark's cache. */
  def generate(spark: SparkSession, s: Sizes, seed: Long, tr: Tracer): Map[String, SynthGraphs.TwoGraphs] =
    names.zipWithIndex.map { case (name, i) =>
      // the dataset functions derive sub-streams from seed, seed+1, ..., seed+7
      val sd = seed * 1000L + 100L * i
      val ds = tr.span("synth.generate", name) {
        val d = name match {
          case "DBLP" => SynthGraphs.dblp(spark, s.dblpN, s.dblpBg, sd)
          case "DM" => SynthGraphs.dm(spark, s.dmN, s.dmBg, sd)
          case "Wiki" => SynthGraphs.wiki(spark, s.wikiN, s.wikiBg, sd)
          case "Movie" => SynthGraphs.douban(spark, "Movie", s.doubanN, sd)
          case "Book" => SynthGraphs.douban(spark, "Book", s.doubanN, sd)
          case "DBLP-C" => SynthGraphs.dblpC(spark, s.dblpcN, s.dblpcBg, sd)
          case "Actor" => SynthGraphs.actor(spark, s.actorN, s.actorBg, sd)
        }
        d.pairs.cache()
        tr.count("synth.input_rows", d.pairs.count().toDouble)
        d
      }
      name -> ds
    }.toMap

  /** The 16 configurations, in Table II order. The base difference graphs
    * are cached as in `Datasets.build`; they are returned so a caller can
    * unpersist them.
    */
  def configs(in: Map[String, SynthGraphs.TwoGraphs]): (Seq[DataFrame], Seq[Config]) = {
    val dblpDiff = Datasets.emerging(in("DBLP")).cache()
    val dblpDisc = DiffGraph.discretize(dblpDiff).cache()
    val dmDiff = Datasets.emerging(in("DM")).cache()
    val wikiConsistent = DiffGraph.difference(in("Wiki").g2, in("Wiki").g1).cache()
    val movieIS = Datasets.emerging(in("Movie")).cache()
    val bookIS = Datasets.emerging(in("Book")).cache()
    val dblpcDiff = Datasets.emerging(in("DBLP-C")).cache()
    val actorDiff = Datasets.emerging(in("Actor")).cache()
    def c(key: String, data: String, df: DataFrame) = Config(key, in(data).n, df)
    val cfgs = Seq(
      c("DBLP/Weighted/Emerging", "DBLP", dblpDiff),
      c("DBLP/Weighted/Disappearing", "DBLP", DiffGraph.negate(dblpDiff)),
      c("DBLP/Discrete/Emerging", "DBLP", dblpDisc),
      c("DBLP/Discrete/Disappearing", "DBLP", DiffGraph.negate(dblpDisc)),
      c("DM/-/Emerging", "DM", dmDiff),
      c("DM/-/Disappearing", "DM", DiffGraph.negate(dmDiff)),
      c("Wiki/-/Consistent", "Wiki", wikiConsistent),
      c("Wiki/-/Conflicting", "Wiki", DiffGraph.negate(wikiConsistent)),
      c("Movie/-/Interest-Social", "Movie", movieIS),
      c("Movie/-/Social-Interest", "Movie", DiffGraph.negate(movieIS)),
      c("Book/-/Interest-Social", "Book", bookIS),
      c("Book/-/Social-Interest", "Book", DiffGraph.negate(bookIS)),
      c("DBLP-C/Weighted/-", "DBLP-C", dblpcDiff),
      c("DBLP-C/Discrete/-", "DBLP-C", DiffGraph.discretizeAll(dblpcDiff)),
      c("Actor/Weighted/-", "Actor", actorDiff),
      c("Actor/Discrete/-", "Actor", DiffGraph.capWeights(actorDiff, 10.0)),
    )
    (Seq(dblpDiff, dblpDisc, dmDiff, wikiConsistent, movieIS, bookIS, dblpcDiff, actorDiff), cfgs)
  }
}

/** The layer calls of the workloads and of the coverage step, their output
  * checks and the rows of the result digest. Timed sections contain layer
  * calls only; checks run after them.
  */
object Layers {

  val DistPeelEps = 0.1
  /** Relative slack for floating-point comparisons of values that are equal
    * in exact arithmetic.
    */
  val Tol = 1e-9

  def elapsed(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** `(m+, m-, max w, min w)` of a collected graph, for the Table II check. */
  def csrStats(g: WGraph): (Long, Long, Double, Double) = {
    var pos = 0L; var neg = 0L
    var mx = Double.NegativeInfinity; var mn = Double.PositiveInfinity
    var u = 0
    while (u < g.n) {
      g.foreachNbr(u) { (v, w) =>
        if (v > u) {
          if (w > 0) pos += 1 else neg += 1
          mx = math.max(mx, w); mn = math.min(mn, w)
        }
      }
      u += 1
    }
    (pos, neg, mx, mn)
  }

  /** Bytes held by a graph's CSR arrays (computed from their lengths). */
  def csrBytes(g: WGraph): Double =
    4.0 * g.offsets.length + 4.0 * g.nbrs.length + 8.0 * g.wts.length

  // ------------------------------------------- G_D build (coverage step)

  final case class Built(cfg: Config, stats: GraphStats, g: WGraph)

  /** Table II stats, then collect into CSR, for each configuration. */
  def buildAll(cfgs: Seq[Config], tr: Tracer, led: Ledger): Seq[Built] =
    cfgs.flatMap { c =>
      led.op(s"build ${c.key}") {
        val st = tr.span("diffgraph.join_stats", c.key)(DiffGraph.stats(c.df, c.n))
        val g = tr.span("diffgraph.to_wgraph", c.key)(DiffGraph.toWGraph(c.df, c.n))
        tr.count("diffgraph.edges", g.numEdges)
        Built(c, st, g)
      }
    }

  def checkBuilt(b: Built, led: Ledger): String = {
    val (pos, neg, mx, mn) = csrStats(b.g)
    val s = b.stats
    val ok = s.mPos == pos && s.mNeg == neg && (pos + neg == 0 || (s.maxW == mx && s.minW == mn))
    led.check(s"build ${b.cfg.key}", ok, s"Table II stats $s disagree with CSR ($pos, $neg, $mx, $mn)")
    s"build ${b.cfg.key} n=${s.n} m+=${s.mPos} m-=${s.mNeg} max=${s.maxW} min=${s.minW}"
  }

  def distPeel(cfgs: Seq[Config], tr: Tracer, led: Ledger): Seq[(String, DistPeeling.DistPeelResult)] =
    cfgs.flatMap { c =>
      led.op(s"distpeel ${c.key}") {
        val r = tr.span("distpeel", c.key)(DistPeeling.densest(DiffGraph.positivePart(c.df), DistPeelEps))
        tr.count("distpeel.rounds", r.rounds.size)
        c.key -> r
      }
    }

  /** DistPeeling is a `2(1+eps)`-approximation on `G_{D+}`, so its density is
    * at least the local peel's (itself at most optimal) over `2(1+eps)`.
    */
  def checkDistPeel(key: String, r: DistPeeling.DistPeelResult, localPeel: Double, led: Ledger): String = {
    val bound = localPeel / (2 * (1 + DistPeelEps))
    led.check(s"distpeel $key", r.density >= bound * (1 - Tol),
      s"density ${r.density} below Peeling.greedy(G_D+) / 2(1+eps) = $bound")
    f"distpeel $key |S|=${r.best.length} rho=${r.density}%.6e rounds=${r.rounds.size}"
  }

  // ---------------------------------------------------------- dcs-answer

  final case class Answer(key: String, ad: DCSResult, gp: WGraph, ga: NewSea.MultiResult, adS: Double, gaS: Double)

  /** DCSAD by DCSGreedy, then DCSGA by NewSEA on `G_{D+}`. */
  def answer(gs: Seq[Graph], tr: Tracer, led: Ledger): Seq[Answer] =
    gs.flatMap { case Graph(key, g) =>
      led.op(s"dcs $key") {
        val t0 = System.nanoTime()
        val ad = tr.span("dcsgreedy", key)(DCSGreedy.run(g))
        val t1 = System.nanoTime()
        val gp = tr.span("wgraph.positive_part", key)(g.positivePart)
        val ga = tr.span("newsea", key)(NewSea.run(gp))
        val t2 = System.nanoTime()
        tr.count("newsea.seeds", ga.initsUsed)
        tr.count("newsea.n", gp.n)
        Answer(key, ad, gp, ga, (t1 - t0) / 1e9, (t2 - t1) / 1e9)
      }
    }

  /** Thm 2 (ratio is a valid approximation bound), Thm 5 (positive clique),
    * Thm 6 (`f <= mu_u` on the clique) and zero SEACD expansion errors.
    */
  def checkAnswer(a: Answer, mu: Array[Double], led: Ledger): String = {
    val what = s"dcs ${a.key}"
    led.check(what, !a.ad.ratio.isNaN && !a.ad.ratio.isInfinite && a.ad.ratio >= 1 - Tol,
      s"DCSGreedy ratio ${a.ad.ratio} is not finite and >= 1 (Thm 2)")
    val s = a.ga.best.supportSet
    led.check(what, a.gp.isPositiveClique(s.toSeq), s"NewSEA result ${s.mkString(",")} is not a positive clique (Thm 5)")
    led.check(what, s.forall(u => a.ga.best.f <= mu(u) * (1 + Tol)), s"NewSEA f ${a.ga.best.f} exceeds mu_u on its clique (Thm 6)")
    led.check(what, a.ga.errors == 0, s"${a.ga.errors} SEACD expansion errors")
    f"dcs ${a.key} ad|S|=${a.ad.s.length} rho=${a.ad.density}%.9e ratio=${a.ad.ratio}%.9e " +
      f"ga|S|=${s.length} f=${a.ga.best.f}%.9e seeds=${a.ga.initsUsed}"
  }

  // ----------------------------------- exhaustive seeds (coverage step)

  final case class Topics(key: String, gp: WGraph, best: NewSea.MultiResult, cliques: Seq[AffinityResult])

  def topics(gs: Seq[Graph], tr: Tracer, led: Ledger): Seq[Topics] =
    gs.flatMap { case Graph(key, gp) =>
      led.op(s"allinits $key") {
        val (r, cl) = tr.span("allinits", key)(NewSea.allInits(gp, useReplicator = false))
        tr.count("allinits.seeds", r.initsUsed)
        tr.count("allinits.cliques", cl.size)
        Topics(key, gp, r, cl)
      }
    }

  /** Every refined result is a positive clique (Thm 5), no expansion error,
    * and the exhaustive optimum equals NewSEA's within 1e-6.
    */
  def checkTopics(t: Topics, newSeaF: Double, led: Ledger): String = {
    val what = s"allinits ${t.key}"
    led.check(what, (t.best.best +: t.cliques).forall(c => t.gp.isPositiveClique(c.supportSet.toSeq)),
      "a refined result is not a positive clique (Thm 5)")
    led.check(what, t.best.errors == 0, s"${t.best.errors} SEACD expansion errors")
    led.check(what, math.abs(t.best.best.f - newSeaF) <= 1e-6, s"f(allInits) ${t.best.best.f} != f(NewSEA) $newSeaF")
    f"allinits ${t.key} cliques=${t.cliques.size} f=${t.best.best.f}%.9e |S|=${t.best.best.supportSet.length}"
  }

  // ---------------------------------------- sub-layers, traced runs only

  /** `WGraph.fromEdges` on the edge arrays of a collected graph; the rebuilt
    * CSR must equal the collected one.
    */
  def fromEdges(b: Built, tr: Tracer, led: Ledger): Unit = led.op(s"fromEdges ${b.cfg.key}") {
    val g = b.g
    val us = new Array[Int](g.numEdges); val vs = new Array[Int](g.numEdges); val ws = new Array[Double](g.numEdges)
    var k = 0
    var u = 0
    while (u < g.n) { g.foreachNbr(u) { (v, w) => if (v > u) { us(k) = u; vs(k) = v; ws(k) = w; k += 1 } }; u += 1 }
    val h = tr.span("wgraph.from_edges", b.cfg.key)(WGraph.fromEdges(g.n, us, vs, ws))
    led.check(s"fromEdges ${b.cfg.key}",
      h.offsets.sameElements(g.offsets) && h.nbrs.sameElements(g.nbrs) && h.wts.sameElements(g.wts),
      "rebuilt CSR differs from the collected one")
  }

  /** The steps inside `DCSGreedy.run` and `NewSea.run`, each called on its
    * own: the two peels, the Thm 6 bound's core numbers and ego-net weights,
    * and NewSEA's seed loop (initAt, SEACD, Refinement) in `mu` order with
    * its stopping rule. The loop must reproduce NewSEA's seeds and optimum.
    */
  def answerSub(a: Answer, g: WGraph, tr: Tracer, led: Ledger): Unit = led.op(s"dcs-sub ${a.key}") {
    tr.span("peeling.gd", a.key)(Peeling.greedy(g))
    tr.span("peeling.gdp", a.key)(Peeling.greedy(a.gp))
    val tau = tr.span("wgraph.core_numbers", a.key)(a.gp.coreNumbers)
    val w = tr.span("wgraph.ego_net_max", a.key)(a.gp.egoNetMaxWeight)
    val mu = Array.tabulate(a.gp.n)(u => tau(u).toDouble * w(u) / (tau(u) + 1.0))
    val order = (0 until a.gp.n).toArray.sortBy(u => -mu(u))
    val (bestF, seeds, _) = seedLoop(a.gp, order, u => mu(u), a.key, tr)
    led.check(s"dcs-sub ${a.key}", seeds == a.ga.initsUsed && bestF == a.ga.best.f,
      s"seed loop gave $seeds seeds, f=$bestF; NewSEA gave ${a.ga.initsUsed}, f=${a.ga.best.f}")
  }

  /** `NewSea.allInits` as its seed loop, with SEACD and Refinement timed;
    * it must find allInits' optimum and distinct cliques.
    */
  def topicsSub(t: Topics, tr: Tracer, led: Ledger): Unit = led.op(s"allinits-sub ${t.key}") {
    val (bestF, seeds, found) = seedLoop(t.gp, Array.range(0, t.gp.n), _ => Double.PositiveInfinity, t.key, tr)
    val distinct = found.filter(_.supportSet.nonEmpty).groupBy(_.supportSet.toSeq).map(_._2.head).toSeq
    val cliques = NewSea.dropSubsetCliques(distinct).map(_.supportSet.toSeq).toSet
    led.check(s"allinits-sub ${t.key}",
      seeds == t.best.initsUsed && bestF == t.best.best.f && cliques == t.cliques.map(_.supportSet.toSeq).toSet,
      s"seed loop gave $seeds seeds, f=$bestF, ${cliques.size} cliques; allInits gave ${t.best.initsUsed}, " +
        s"f=${t.best.best.f}, ${t.cliques.size} cliques")
  }

  /** Seeds in `order` until `bound(u)` cannot beat the incumbent; returns
    * the best affinity, the seeds run and every refined result.
    */
  private def seedLoop(gp: WGraph, order: Array[Int], bound: Int => Double, key: String,
                       tr: Tracer): (Double, Int, Seq[AffinityResult]) = {
    val st = new AffinityState(gp)
    val found = mutable.ArrayBuffer.empty[AffinityResult]
    var bestF = 0.0
    var seeds = 0
    var k = 0
    while (k < order.length && bound(order(k)) > bestF) {
      tr.span("affinity.init_at", key)(st.initAt(order(k)))
      val trace = tr.span("seacd", key)(Seacd.run(st))
      tr.count("seacd.outer_iters", trace.seaIterations)
      tr.count("seacd.expansion_errors", trace.expansionErrors)
      val r = tr.span("refine", key)(Refinement.run(st))
      if (r.f > bestF) bestF = r.f
      found += r
      seeds += 1
      k += 1
    }
    (bestF, seeds, found.toSeq)
  }
}
