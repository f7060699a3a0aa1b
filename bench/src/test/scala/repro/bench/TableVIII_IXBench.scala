package repro.bench

import repro.SparkSpec
import repro.harness.Tables

/** Reproduces Tables VIII and IX: the EgoScan baseline on the four DBLP
  * difference graphs.
  *
  * Paper shape: EgoScan's subgraphs are large (44-82 authors), never positive
  * cliques, with far lower density difference than the DCS algorithms
  * (Table VIII), but they win on their own objective, total edge-weight
  * difference `W_D(S)` (Table IX: e.g. Weighted Emerging 2210 vs 326).
  */
class TableVIII_IXBench extends SparkSpec {

  private lazy val rows = Tables.tableVIII_IX(BenchData.sets)
  private lazy val iv = Tables.tableIII_IV(BenchData.sets)

  test("print Tables VIII and IX") {
    println("==== Tables VIII / IX (ours, bench scale) ====")
    println(Tables.renderVIII_IX(rows))
  }

  test("EgoScan subgraphs are large and never positive cliques (Table VIII)") {
    rows.foreach { r =>
      assert(r.size >= 20, s"${r.setting}/${r.gdType}: size ${r.size} (paper: 44-82)")
      assert(!r.positiveClique)
    }
  }

  test("EgoScan has much lower density difference than DCSGreedy (Table VIII vs IV)") {
    rows.foreach { r =>
      val dcs = iv.find(x => x.setting == r.setting && x.gdType == r.gdType && x.measure == "AvgDegree").get
      assert(r.avgDegreeDiff < dcs.avgDegreeDiff,
        s"${r.setting}/${r.gdType}: ego rho ${r.avgDegreeDiff} vs DCS rho ${dcs.avgDegreeDiff}")
      assert(r.edgeDensityDiff < dcs.edgeDensityDiff)
    }
  }

  test("EgoScan wins on total edge-weight difference (Table IX)") {
    rows.foreach { r =>
      assert(r.wEgo >= r.wDcsGreedy, s"${r.setting}/${r.gdType}: ego ${r.wEgo} vs greedy ${r.wDcsGreedy}")
      assert(r.wEgo >= r.wNewSea, s"${r.setting}/${r.gdType}: ego ${r.wEgo} vs newsea ${r.wNewSea}")
    }
  }

  test("NewSEA total weight never exceeds DCSGreedy's on the same graph (small cliques)") {
    rows.foreach(r => assert(r.wNewSea <= r.wDcsGreedy + 1e-9, s"${r.setting}/${r.gdType}"))
  }
}
