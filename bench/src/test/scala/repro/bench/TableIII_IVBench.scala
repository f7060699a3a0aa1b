package repro.bench

import repro.SparkSpec
import repro.harness.Tables

/** Reproduces Tables III and IV: DBLP co-author groups.
  *
  * Paper targets (Table IV): Weighted Emerging -> UTA-ML (4, rho 81.5,
  * f 23.167); Weighted Disappearing -> Robotics1 (6, rho 143) / Robotics2
  * (2, f 50); Discrete Emerging -> CMU (7, rho 12, f 1.714); Discrete
  * Disappearing -> Compiler (22, rho 21.45) / Robotics3 (f 1.714).
  */
class TableIII_IVBench extends SparkSpec {

  private lazy val rows = Tables.tableIII_IV(BenchData.sets)
  private def row(setting: String, gdType: String, measure: String) =
    rows.find(r => r.setting == setting && r.gdType == gdType && r.measure == measure).get

  test("print Tables III and IV") {
    println("==== Tables III / IV (ours, bench scale) ====")
    println(Tables.renderIII_IV(rows))
  }

  test("Weighted Emerging: UTA-ML under both measures") {
    val ad = row("Weighted", "Emerging", "AvgDegree")
    assert(ad.groupName == "UTA-ML" && ad.size == 4 && ad.positiveClique)
    assert(math.abs(ad.avgDegreeDiff - 81.5) < 1e-9, "paper: 81.5")
    assert(math.abs(ad.edgeDensityDiff - 20.375) < 1e-9, "paper: 20.375")
    val ga = row("Weighted", "Emerging", "Affinity")
    assert(ga.groupName == "UTA-ML" && ga.size == 4 && ga.positiveClique)
    assert(ga.affinityDiff > 22 && ga.affinityDiff < 25, s"paper: 23.167, ours ${ga.affinityDiff}")
  }

  test("Weighted Disappearing: Robotics1 (avg degree) and Robotics2 (affinity)") {
    val ad = row("Weighted", "Disappearing", "AvgDegree")
    assert(ad.groupName == "Robotics1" && ad.size == 6 && ad.positiveClique)
    assert(math.abs(ad.avgDegreeDiff - 143.0) < 1e-9, "paper: 143")
    assert(math.abs(ad.edgeDensityDiff - 143.0 / 6) < 1e-9, "paper: 23.833")
    val ga = row("Weighted", "Disappearing", "Affinity")
    assert(ga.groupName == "Robotics2" && ga.size == 2)
    assert(math.abs(ga.affinityDiff - 50.0) < 1e-6, "paper: 50")
  }

  test("Discrete Emerging: CMU under both measures (rho 12, f 1.714)") {
    val ad = row("Discrete", "Emerging", "AvgDegree")
    assert(ad.groupName == "CMU" && ad.size == 7 && ad.positiveClique)
    assert(math.abs(ad.avgDegreeDiff - 12.0) < 1e-9)
    assert(math.abs(ad.edgeDensityDiff - 12.0 / 7) < 1e-9, "paper: 1.714")
    val ga = row("Discrete", "Emerging", "Affinity")
    assert(ga.groupName == "CMU" && ga.size == 7)
    assert(math.abs(ga.affinityDiff - 12.0 / 7) < 1e-3, "paper: 1.714")
  }

  test("Discrete Disappearing: Compiler group (avg degree) and Robotics3 (affinity)") {
    val ad = row("Discrete", "Disappearing", "AvgDegree")
    assert(ad.groupName == "Compiler" && ad.size == 22 && ad.positiveClique)
    assert(math.abs(ad.avgDegreeDiff - 2.0 * 237 / 22) < 1e-9, s"paper: 21.45, ours ${ad.avgDegreeDiff}")
    val ga = row("Discrete", "Disappearing", "Affinity")
    assert(ga.groupName == "Robotics3" && ga.size == 7)
    assert(math.abs(ga.affinityDiff - 12.0 / 7) < 1e-3, "paper: 1.714")
  }

  test("approximation ratios are small (paper reports 2 on every row)") {
    rows.filter(_.measure == "AvgDegree").foreach { r =>
      assert(r.approxRatio >= 1.0 && r.approxRatio < 4.0, s"${r.setting}/${r.gdType}: ${r.approxRatio}")
    }
  }

  test("affinity groups always have positive-clique interpretability (Section V-C)") {
    rows.filter(_.measure == "Affinity").foreach(r => assert(r.positiveClique, s"${r.setting}/${r.gdType}"))
  }
}
