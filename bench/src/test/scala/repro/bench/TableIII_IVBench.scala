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

  private lazy val rows = BenchData.sets.filter(_.data == "DBLP").flatMap(ds => Tables.dcsad(ds) :+ Tables.dcsga(ds))
  private def row(setting: String, gdType: String, algo: String) =
    rows.find(r => r.ds.key == s"DBLP/$setting/$gdType" && r.algo == algo).get

  test("print Tables III and IV") {
    println("==== Tables III / IV (ours, bench scale) ====")
    println("Table IV rows:")
    println(Tables.render(rows))
    println("\nTable III groups:")
    println(Tables.renderGroups(rows))
  }

  test("Weighted Emerging: UTA-ML under both measures") {
    val ad = row("Weighted", "Emerging", "DCSGreedy")
    assert(ad.group == "UTA-ML" && ad.size == 4 && ad.positiveClique)
    assert(math.abs(ad.rho - 81.5) < 1e-9, "paper: 81.5")
    assert(math.abs(ad.edgeDensity - 20.375) < 1e-9, "paper: 20.375")
    val ga = row("Weighted", "Emerging", "NewSEA")
    assert(ga.group == "UTA-ML" && ga.size == 4 && ga.positiveClique)
    assert(ga.f > 22 && ga.f < 25, s"paper: 23.167, ours ${ga.f}")
  }

  test("Weighted Disappearing: Robotics1 (avg degree) and Robotics2 (affinity)") {
    val ad = row("Weighted", "Disappearing", "DCSGreedy")
    assert(ad.group == "Robotics1" && ad.size == 6 && ad.positiveClique)
    assert(math.abs(ad.rho - 143.0) < 1e-9, "paper: 143")
    assert(math.abs(ad.edgeDensity - 143.0 / 6) < 1e-9, "paper: 23.833")
    val ga = row("Weighted", "Disappearing", "NewSEA")
    assert(ga.group == "Robotics2" && ga.size == 2)
    assert(math.abs(ga.f - 50.0) < 1e-6, "paper: 50")
  }

  test("Discrete Emerging: CMU under both measures (rho 12, f 1.714)") {
    val ad = row("Discrete", "Emerging", "DCSGreedy")
    assert(ad.group == "CMU" && ad.size == 7 && ad.positiveClique)
    assert(math.abs(ad.rho - 12.0) < 1e-9)
    assert(math.abs(ad.edgeDensity - 12.0 / 7) < 1e-9, "paper: 1.714")
    val ga = row("Discrete", "Emerging", "NewSEA")
    assert(ga.group == "CMU" && ga.size == 7)
    assert(math.abs(ga.f - 12.0 / 7) < 1e-3, "paper: 1.714")
  }

  test("Discrete Disappearing: Compiler group (avg degree) and Robotics3 (affinity)") {
    val ad = row("Discrete", "Disappearing", "DCSGreedy")
    assert(ad.group == "Compiler" && ad.size == 22 && ad.positiveClique)
    assert(math.abs(ad.rho - 2.0 * 237 / 22) < 1e-9, s"paper: 21.45, ours ${ad.rho}")
    val ga = row("Discrete", "Disappearing", "NewSEA")
    assert(ga.group == "Robotics3" && ga.size == 7)
    assert(math.abs(ga.f - 12.0 / 7) < 1e-3, "paper: 1.714")
  }

  test("approximation ratios are small (paper reports 2 on every row)") {
    rows.filter(_.algo == "DCSGreedy").foreach { r =>
      assert(r.ratio >= 1.0 && r.ratio < 4.0, s"${r.ds.key}: ${r.ratio}")
    }
  }

  test("affinity groups always have positive-clique interpretability (Section V-C)") {
    rows.filter(_.algo == "NewSEA").foreach(r => assert(r.positiveClique, r.ds.key))
  }
}
