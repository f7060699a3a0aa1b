package repro.bench

import repro.SparkSpec
import repro.harness.Tables

/** Reproduces Table VII: running time of NewSEA vs SEACD+Refine vs SEA+Refine
  * on all 16 configurations, plus the expansion-error counts of SEA.
  *
  * Absolute seconds are not comparable to the paper (scaled datasets, our
  * hardware); the assertions check the paper's claims about *shape*:
  * NewSEA is much faster than SEACD+Refine (1-3 orders of magnitude from the
  * smart-initialization heuristic), SEACD+Refine beats SEA+Refine overall,
  * coordinate-descent shrink never makes expansion errors while the
  * loose-convergence replicator does, and all three find the same solution.
  */
class TableVIIBench extends SparkSpec {

  private lazy val rows = Tables.tableVII(BenchData.sets)

  test("print Table VII") {
    println("==== Table VII (ours, bench scale; paper times in EXPERIMENTS.md) ====")
    println(Tables.renderVII(rows))
  }

  test("NewSEA never does more work than exhaustive initialization") {
    // NewSEA's init set is a prefix of the mu-ordered vertices, so it can at
    // worst match SEACD+Refine's work; wall-clock gets a generous jitter
    // allowance because on configs where the bound barely prunes (Wiki — the
    // paper's weakest case too, 8x vs 1000x elsewhere) the two runs do the
    // same work and GC noise dominates
    rows.foreach { r =>
      assert(r.newSeaMs <= r.seacdMs * 1.5 + 500.0,
        s"${r.key}: NewSEA ${r.newSeaMs}ms vs SEACD ${r.seacdMs}ms")
    }
  }

  test("NewSEA achieves large aggregate speedups over exhaustive initialization") {
    val speedup = rows.map(_.seacdMs).sum / math.max(1e-9, rows.map(_.newSeaMs).sum)
    assert(speedup > 5.0, s"aggregate speedup $speedup (paper: 1-3 orders of magnitude)")
  }

  test("SEACD+Refine is faster than SEA+Refine in aggregate (replicator converges slower)") {
    val cd = rows.map(_.seacdMs).sum
    val sea = rows.map(_.seaMs).sum
    assert(cd < sea, s"SEACD total ${cd}ms vs SEA total ${sea}ms")
  }

  test("coordinate-descent variants never make expansion errors; SEA does somewhere") {
    rows.foreach { r =>
      assert(r.newSeaErrors == 0 && r.seacdErrors == 0, s"${r.key}: NewSEA ${r.newSeaErrors}, SEACD ${r.seacdErrors} errors")
    }
    val seaErrors = rows.map(_.seaErrors).sum
    assert(seaErrors > 0, s"expected the loose shrink convergence to cause expansion errors (paper: up to 4419)")
  }

  test("all three algorithms find solutions of the same quality (paper: same DCS)") {
    rows.foreach { r =>
      assert(math.abs(r.newSeaF - r.seacdF) < 1e-6, s"${r.key}: NewSEA f ${r.newSeaF} vs SEACD f ${r.seacdF}")
      assert(r.seaF <= r.seacdF + 1e-6, s"${r.key}: SEA cannot beat the KKT-correct variants")
    }
  }

  test("smart initialization tries only a tiny fraction of the vertices") {
    val totalN = BenchData.sets.map(_.n).sum
    val totalInits = rows.map(_.newSeaInits).sum
    assert(totalInits.toDouble / totalN < 0.25, s"$totalInits inits over $totalN vertices")
  }
}
