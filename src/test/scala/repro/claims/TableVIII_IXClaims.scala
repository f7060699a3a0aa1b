package repro.claims

import repro.{Configs, SparkSpec}
import repro.harness.{DiffSet, Tables}

/** Reproduces Tables VIII and IX: the EgoScan baseline on the four DBLP
  * difference graphs.
  *
  * Paper shape: EgoScan's subgraphs are large (44-82 authors), never positive
  * cliques, with far lower density difference than the DCS algorithms
  * (Table VIII), but they win on their own objective, total edge-weight
  * difference `W_D(S)` (Table IX: e.g. Weighted Emerging 2210 vs 326).
  */
abstract class TableVIII_IXClaims(sets: => Seq[DiffSet]) extends SparkSpec {

  private lazy val rows = sets.filter(_.data == "DBLP")
    .flatMap(ds => Tables.egoScan(ds) +: Tables.dcsad(ds) :+ Tables.dcsga(ds))
  private lazy val ego = rows.filter(_.algo == "EgoScan")
  private def row(key: String, algo: String) = rows.find(r => r.ds.key == key && r.algo == algo).get

  /** The table's rows as text. */
  def rendered: String = "== Tables VIII / IX\n" + Tables.render(rows)

  test("EgoScan subgraphs are large, larger than DCSGreedy's, and never positive cliques (Table VIII)") {
    ego.foreach { r =>
      assert(r.size >= 20, s"${r.ds.key}: size ${r.size} (paper: 44-82)")
      assert(r.size > row(r.ds.key, "DCSGreedy").size, s"${r.ds.key}: size ${r.size}")
      assert(!r.positiveClique)
    }
  }

  test("EgoScan has much lower density difference than DCSGreedy (Table VIII vs IV)") {
    ego.foreach { r =>
      val dcs = row(r.ds.key, "DCSGreedy")
      assert(r.rho < dcs.rho, s"${r.ds.key}: ego rho ${r.rho} vs DCS rho ${dcs.rho}")
      assert(r.edgeDensity < dcs.edgeDensity)
    }
  }

  test("EgoScan wins on total edge-weight difference (Table IX)") {
    ego.foreach { r =>
      val (dcs, ga) = (row(r.ds.key, "DCSGreedy"), row(r.ds.key, "NewSEA"))
      assert(r.w > dcs.w, s"${r.ds.key}: ego ${r.w} vs greedy ${dcs.w}")
      assert(r.w >= ga.w, s"${r.ds.key}: ego ${r.w} vs newsea ${ga.w}")
    }
  }

  test("NewSEA total weight never exceeds DCSGreedy's on the same graph (small cliques)") {
    ego.foreach(r => assert(row(r.ds.key, "NewSEA").w <= row(r.ds.key, "DCSGreedy").w + 1e-9, r.ds.key))
  }
}

class TableVIII_IXTiny extends TableVIII_IXClaims(Configs.tiny)
