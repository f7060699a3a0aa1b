package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.SynthGraphs
import repro.data.SynthGraphs.TwoGraphs
import repro.graph.{DiffGraph, WGraph}

/** A named difference-graph configuration — one row of the paper's Table II.
  *
  * `in` is the generated pair the configuration is built on; `df` is the
  * Spark-side edge list (input to stats and distributed peeling); `wg`
  * collects it once into the local kernel for the local-search algorithms.
  */
final case class DiffSet(data: String, setting: String, gdType: String, in: TwoGraphs, df: DataFrame) {
  lazy val wg: WGraph = DiffGraph.toWGraph(df, n)
  def key: String = s"$data/$setting/$gdType"
  def n: Int = in.n
}

/** Scaled dataset sizes. The paper's graphs are 10-100x larger; `bench` keeps
  * every experiment inside a laptop-scale container while preserving each
  * dataset's shape (sign balance, density, weight extremes).
  *
  * Douban's density is not preserved: `SynthGraphs.douban` draws a fixed
  * 115,000 (Movie) / 100,000 (Book) background pairs among ids `1350 until
  * doubanN`, about 1.3% / 1.2% of those pairs at `bench` (4,150 ids) but
  * 42% / 38% at `tiny` (650 ids, about 88.6k / 79.7k distinct pairs).
  *
  * Actor's weight distribution is not preserved either: its Weighted
  * configuration averages 1.40 at `tiny`, against 1.101 in the paper.
  */
final case class Sizes(
    dblpN: Int, dblpBg: Long,
    dmN: Int, dmBg: Long,
    wikiN: Int, wikiBg: Long,
    doubanN: Int,
    dblpcN: Int, dblpcBg: Long,
    actorN: Int, actorBg: Long,
)

object Sizes {
  val bench: Sizes = Sizes(4500, 26000, 2400, 60000, 10000, 210000, 5500, 60000, 260000, 10000, 430000)
  val tiny: Sizes = Sizes(1200, 6000, 800, 8000, 1500, 12000, 2000, 5000, 20000, 2000, 15000)
}

/** The 16 difference-graph configurations of Table II: `inputs` generates the
  * seven input pairs, `configs` builds the configurations on any such pairs.
  */
object Datasets {

  /** `G_D = A2 - A1` for a generated pair. */
  def emerging(ds: TwoGraphs): DataFrame = DiffGraph.difference(ds.g1, ds.g2)

  /** The seven input pairs at sizes `s`, each generated with its calibrated
    * default seed, keyed by the `data` name of its configurations.
    */
  def inputs(spark: SparkSession, s: Sizes): Map[String, TwoGraphs] = Map(
    "DBLP" -> SynthGraphs.dblp(spark, s.dblpN, s.dblpBg),
    "DM" -> SynthGraphs.dm(spark, s.dmN, s.dmBg),
    "Wiki" -> SynthGraphs.wiki(spark, s.wikiN, s.wikiBg),
    "Movie" -> SynthGraphs.douban(spark, "Movie", s.doubanN),
    "Book" -> SynthGraphs.douban(spark, "Book", s.doubanN),
    "DBLP-C" -> SynthGraphs.dblpC(spark, s.dblpcN, s.dblpcBg),
    "Actor" -> SynthGraphs.actor(spark, s.actorN, s.actorBg),
  )

  /** The 16 configurations on the pairs `in` (keyed as by `inputs`), in Table
    * II order. Each configuration's base difference graph is cached and its
    * variants (negated, discretized, capped) are built on the cached base;
    * `sets.foreach(_.df.unpersist(blocking = true))` releases them.
    */
  def configs(in: Map[String, TwoGraphs]): Seq[DiffSet] = {
    def base(data: String, setting: String, gdType: String, df: DataFrame) =
      DiffSet(data, setting, gdType, in(data), df.cache())
    def variant(of: DiffSet, setting: String, gdType: String)(op: DataFrame => DataFrame) =
      DiffSet(of.data, setting, gdType, of.in, op(of.df))

    val dblp = base("DBLP", "Weighted", "Emerging", emerging(in("DBLP")))
    val dblpDisc = base("DBLP", "Discrete", "Emerging", DiffGraph.discretize(dblp.df))
    val dm = base("DM", "-", "Emerging", emerging(in("DM")))
    val wiki = base("Wiki", "-", "Consistent", DiffGraph.difference(in("Wiki").g2, in("Wiki").g1)) // positive - conflict
    val movie = base("Movie", "-", "Interest-Social", emerging(in("Movie"))) // interest - social
    val book = base("Book", "-", "Interest-Social", emerging(in("Book")))
    val dblpc = base("DBLP-C", "Weighted", "-", emerging(in("DBLP-C")))
    val actor = base("Actor", "Weighted", "-", emerging(in("Actor")))
    Seq(
      dblp, variant(dblp, "Weighted", "Disappearing")(DiffGraph.negate),
      dblpDisc, variant(dblpDisc, "Discrete", "Disappearing")(DiffGraph.negate),
      dm, variant(dm, "-", "Disappearing")(DiffGraph.negate),
      wiki, variant(wiki, "-", "Conflicting")(DiffGraph.negate),
      movie, variant(movie, "-", "Social-Interest")(DiffGraph.negate),
      book, variant(book, "-", "Social-Interest")(DiffGraph.negate),
      dblpc, variant(dblpc, "Discrete", "-")(DiffGraph.discretizeAll),
      actor, variant(actor, "Discrete", "-")(DiffGraph.capWeights(_, 10.0)),
    )
  }

  def build(spark: SparkSession, s: Sizes): Seq[DiffSet] = configs(inputs(spark, s))
}
