package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.SynthGraphs
import repro.graph.{DiffGraph, WGraph}

/** A named difference-graph configuration — one row of the paper's Table II.
  *
  * The DataFrame is the Spark-side edge list (input to stats and distributed
  * peeling); `wg` collects it once into the local kernel for the local-search
  * algorithms.
  */
final case class DiffSet(
    data: String,
    setting: String,
    gdType: String,
    n: Int,
    df: DataFrame,
    label: Int => String,
    planted: Map[String, Seq[Int]],
) {
  lazy val wg: WGraph = DiffGraph.toWGraph(df, n)
  def key: String = s"$data/$setting/$gdType"
}

/** Scaled dataset sizes. The paper's graphs are 10-100x larger; `bench` keeps
  * every experiment inside a laptop-scale container while preserving each
  * dataset's shape (sign balance, density, weight extremes).
  *
  * Douban's density is not preserved: `SynthGraphs.douban` draws a fixed
  * 115,000 (Movie) / 100,000 (Book) background pairs among ids `1350 until
  * doubanN`, about 1.3% / 1.2% of those pairs at `bench` (4,150 ids) but
  * 42% / 38% at `tiny` (650 ids, about 88.6k / 79.7k distinct pairs).
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

/** Builds the 16 difference-graph configurations of Table II. */
object Datasets {

  final case class Bundle(diffSets: Seq[DiffSet], dm: SynthGraphs.TwoGraphs)

  /** `G_D = A2 - A1` for a generated pair. */
  def emerging(ds: SynthGraphs.TwoGraphs): DataFrame = DiffGraph.difference(ds.g1, ds.g2)

  def build(spark: SparkSession, s: Sizes): Bundle = {
    val dblp = SynthGraphs.dblp(spark, s.dblpN, s.dblpBg)
    val dm = SynthGraphs.dm(spark, s.dmN, s.dmBg)
    val wiki = SynthGraphs.wiki(spark, s.wikiN, s.wikiBg)
    val movie = SynthGraphs.douban(spark, "Movie", s.doubanN)
    val book = SynthGraphs.douban(spark, "Book", s.doubanN)
    val dblpc = SynthGraphs.dblpC(spark, s.dblpcN, s.dblpcBg)
    val actor = SynthGraphs.actor(spark, s.actorN, s.actorBg)

    val dblpDiff = emerging(dblp).cache()
    val dblpDisc = DiffGraph.discretize(dblpDiff).cache()
    val dmDiff = emerging(dm).cache()
    val wikiConsistent = DiffGraph.difference(wiki.g2, wiki.g1).cache() // positive - conflict
    val movieIS = emerging(movie).cache() // interest - social
    val bookIS = emerging(book).cache()
    val dblpcDiff = emerging(dblpc).cache()
    val actorDiff = emerging(actor).cache()

    def set(data: String, setting: String, gdType: String, ds: SynthGraphs.TwoGraphs, df: DataFrame) =
      DiffSet(data, setting, gdType, ds.n, df, ds.label, ds.planted)

    val diffSets = Seq(
      set("DBLP", "Weighted", "Emerging", dblp, dblpDiff),
      set("DBLP", "Weighted", "Disappearing", dblp, DiffGraph.negate(dblpDiff)),
      set("DBLP", "Discrete", "Emerging", dblp, dblpDisc),
      set("DBLP", "Discrete", "Disappearing", dblp, DiffGraph.negate(dblpDisc)),
      set("DM", "-", "Emerging", dm, dmDiff),
      set("DM", "-", "Disappearing", dm, DiffGraph.negate(dmDiff)),
      set("Wiki", "-", "Consistent", wiki, wikiConsistent),
      set("Wiki", "-", "Conflicting", wiki, DiffGraph.negate(wikiConsistent)),
      set("Movie", "-", "Interest-Social", movie, movieIS),
      set("Movie", "-", "Social-Interest", movie, DiffGraph.negate(movieIS)),
      set("Book", "-", "Interest-Social", book, bookIS),
      set("Book", "-", "Social-Interest", book, DiffGraph.negate(bookIS)),
      set("DBLP-C", "Weighted", "-", dblpc, dblpcDiff),
      set("DBLP-C", "Discrete", "-", dblpc, DiffGraph.discretizeAll(dblpcDiff)),
      set("Actor", "Weighted", "-", actor, actorDiff),
      set("Actor", "Discrete", "-", actor, DiffGraph.capWeights(actorDiff, 10.0)),
    )
    Bundle(diffSets, dm)
  }
}
