package perfbench

import org.apache.spark.sql.DataFrame
import repro.core.{DCSGreedy, NewSea}
import repro.data.SynthGraphs
import repro.graph.DiffGraph

import scala.collection.mutable

/** One timed pass: its wall time and the stage times it is made of.
  * `check` verifies its outputs and returns the digest rows of its results,
  * which must be identical on every pass of one seed.
  */
final case class PassResult(wall: Double, stages: Seq[(String, Double)], check: Ledger => Seq[String])

/** A workload: set-up done once, then passes that are timed. */
trait Workload {
  /** Work done before the first timed pass (after inputs are generated). */
  def setup(tr: Tracer): Unit

  /** One pass. Only layer calls are inside `wall`. */
  def pass(tr: Tracer, led: Ledger): PassResult

  /** Traced runs: re-runs, outside the pass, the steps inside program
    * functions that the pass called, so each can be timed on its own.
    */
  def sub(tr: Tracer, led: Ledger): Unit

  /** DCSGreedy's Thm 2 ratio on the 16 configurations of this seed. */
  def ratios(): Seq[Double]
}

object Workloads {
  val Names: Seq[String] = Seq("dcs-answer", "topics-exhaustive")

  def apply(name: String, in: Map[String, SynthGraphs.TwoGraphs]): Workload = name match {
    case "dcs-answer" => new DcsAnswer(in)
    case "topics-exhaustive" => new TopicsExhaustive(in)
  }

  /** The 16 `G_D` collected into CSR, so Spark stays out of the passes. */
  def collect(in: Map[String, SynthGraphs.TwoGraphs], tr: Tracer): Seq[Graph] = {
    val (bases, cfgs) = Inputs.configs(in)
    val graphs = cfgs.map(c => Graph(c.key, tr.span("diffgraph.to_wgraph", c.key)(DiffGraph.toWGraph(c.df, c.n))))
    bases.foreach(_.unpersist(blocking = true))
    graphs
  }
}

/** Local kernel only: for each of the 16 collected `G_D`, DCSGreedy, then
  * `positivePart` and NewSEA.
  */
final class DcsAnswer(in: Map[String, SynthGraphs.TwoGraphs]) extends Workload {
  private var graphs: Seq[Graph] = Nil
  private val mu = mutable.Map.empty[String, Array[Double]]
  private var last: Seq[Layers.Answer] = Nil

  def setup(tr: Tracer): Unit = graphs = Workloads.collect(in, tr)

  def pass(tr: Tracer, led: Ledger): PassResult = {
    val t0 = System.nanoTime()
    val answers = Layers.answer(graphs, tr, led)
    val wall = Layers.elapsed(t0)
    graphs.foreach(g => tr.count("wgraph.csr_bytes", Layers.csrBytes(g.g)))
    last = answers
    PassResult(wall, Seq("dcsad_s" -> answers.map(_.adS).sum, "dcsga_s" -> answers.map(_.gaS).sum), led =>
      answers.map(a => Layers.checkAnswer(a, mu.getOrElseUpdate(a.key, NewSea.smartBounds(a.gp)), led)))
  }

  def sub(tr: Tracer, led: Ledger): Unit =
    last.foreach(a => Layers.answerSub(a, graphs.find(_.key == a.key).get.g, tr, led))

  def ratios(): Seq[Double] = last.map(_.ad.ratio)
}

/** Local kernel only: `NewSea.allInits` (SEACD + Refinement from every
  * vertex) on `G_{D+}` of the 14 configurations other than DBLP-C, and on
  * DM's `G1` and `G2` (Tables V/VI).
  */
final class TopicsExhaustive(in: Map[String, SynthGraphs.TwoGraphs]) extends Workload {
  private var all: Seq[Graph] = Nil
  private var graphs: Seq[Graph] = Nil
  private val newSeaF = mutable.Map.empty[String, Double]
  private var last: Seq[Layers.Topics] = Nil

  def setup(tr: Tracer): Unit = {
    all = Workloads.collect(in, tr)
    val dm = in("DM")
    def single(key: String, df: DataFrame) =
      Graph(key, tr.span("diffgraph.to_wgraph", key)(DiffGraph.toWGraph(DiffGraph.canonicalize(df), dm.n)))
    graphs = all.filterNot(_.key.startsWith("DBLP-C/")).map(g => Graph(g.key, g.g.positivePart)) ++
      Seq(single("DM/G1", dm.g1), single("DM/G2", dm.g2))
  }

  def pass(tr: Tracer, led: Ledger): PassResult = {
    val t0 = System.nanoTime()
    val topics = Layers.topics(graphs, tr, led)
    val wall = Layers.elapsed(t0)
    graphs.foreach(g => tr.count("wgraph.csr_bytes", Layers.csrBytes(g.g)))
    last = topics
    PassResult(wall, Seq("topics_s" -> wall), led =>
      topics.map(t => Layers.checkTopics(t, newSeaF.getOrElseUpdate(t.key, NewSea.run(t.gp).best.f), led)))
  }

  def sub(tr: Tracer, led: Ledger): Unit = last.foreach(Layers.topicsSub(_, tr, led))

  private lazy val dcsRatios = all.map(g => DCSGreedy.run(g.g).ratio)
  def ratios(): Seq[Double] = dcsRatios
}
