package repro.core

import repro.{Configs, SparkSpec, TestKit}
import repro.graph.DiffGraph

class DistPeelingSpec extends SparkSpec {

  test("distributed peel recovers a planted clique") {
    val clique = for (i <- 0 until 6; j <- (i + 1) until 6) yield (i, j, 2.0)
    val rnd = new scala.util.Random(1)
    val noise = for {
      i <- 6 until 60; j <- (i + 1) until 60
      if rnd.nextDouble() < 0.05
    } yield (i, j, 0.5)
    val g = repro.graph.WGraph(60, clique ++ noise)
    val r = DistPeeling.densest(TestKit.toDF(spark, g), eps = 0.05)
    assert((0 until 6).forall(u => r.best.contains(u.toLong)), s"got ${r.best.toSeq}")
    assert(r.density >= 10.0 - 1e-9) // clique density = 2*2*... = (k-1)*w = 10
  }

  test("distributed peel is a 2(1+eps)-approximation on positive graphs") {
    for (seed <- 1 to 5) {
      val g = TestKit.randomPositive(12, 0.4, 3.0, seed)
      val (_, opt) = TestKit.bruteDensest(g)
      val eps = 0.1
      val r = DistPeeling.densest(TestKit.toDF(spark, g), eps)
      assert(r.density >= opt / (2 * (1 + eps)) - 1e-9, s"seed=$seed got=${r.density} opt=$opt")
      assert(r.density <= opt + 1e-9, s"seed=$seed")
    }
  }

  test("round count is logarithmic, not linear") {
    val g = TestKit.randomPositive(300, 0.05, 2.0, 9)
    val r = DistPeeling.densest(TestKit.toDF(spark, g), eps = 0.2)
    assert(r.rounds.size <= 40, s"took ${r.rounds.size} rounds")
    assert(r.rounds.size >= 2)
  }

  test("density trace matches the local kernel on the surviving sets") {
    val g = TestKit.randomPositive(30, 0.3, 2.0, 11)
    val r = DistPeeling.densest(TestKit.toDF(spark, g), eps = 0.1)
    // best round's density must equal the local density of the returned set
    val local = g.density(r.best.map(_.toInt).toSeq)
    assert(math.abs(local - r.density) < 1e-9)
  }

  test("all-negative graph returns the trivial solution") {
    val g = repro.graph.WGraph(5, Seq((0, 1, -1.0), (2, 3, -2.0)))
    val r = DistPeeling.densest(TestKit.toDF(spark, g), eps = 0.1)
    assert(r.best.isEmpty)
    assert(r.density == 0.0)
  }

  test("distributed and exact peeling agree on the planted-structure optimum") {
    val clique = for (i <- 0 until 8; j <- (i + 1) until 8) yield (i, j, 3.0)
    val rnd = new scala.util.Random(5)
    val noise = for {
      i <- 8 until 100; j <- (i + 1) until 100
      if rnd.nextDouble() < 0.04
    } yield (i, j, if (rnd.nextBoolean()) 0.5 else -0.5)
    val g = repro.graph.WGraph(100, clique ++ noise)
    val exact = Peeling.greedy(g.positivePart)
    val dist = DistPeeling.densest(TestKit.toDF(spark, g.positivePart), eps = 0.05)
    assert(math.abs(exact.density - dist.density) < 1.0,
      s"exact=${exact.density} dist=${dist.density}")
  }

  test("every round matches a local batch peel on positive, signed and all-negative graphs") {
    val graphs =
      (1 to 4).map(seed => s"positive $seed" -> TestKit.randomPositive(40, 0.2, 2.0, seed)) ++
        (1 to 4).map(seed => s"signed $seed" -> TestKit.randomSigned(40, 0.3, 2.0, seed)) :+
        ("all-negative" -> repro.graph.WGraph(5, Seq((0, 1, -1.0), (2, 3, -2.0))))
    val eps = 0.1
    for ((name, g) <- graphs) {
      val (rounds, best, density) = TestKit.batchPeel(g, eps)
      val r = DistPeeling.densest(TestKit.toDF(spark, g), eps)
      assert(r.rounds.map(_.size) == rounds.map(_._1.toLong), s"$name: round sizes")
      r.rounds.zip(rounds).foreach { case (got, (_, w)) =>
        assert(math.abs(got.totalWeight - w) < 1e-9, s"$name: W(S) ${got.totalWeight} vs $w")
      }
      assert(r.best.map(_.toInt).toSet == best, s"$name: best set")
      assert(math.abs(r.density - density) < 1e-9, s"$name: density ${r.density} vs $density")
    }
  }

  test("DCSAD via distributed peeling candidates matches local DCSGreedy on DBLP positives") {
    val ds = Configs.byKey(Configs.tiny, "DBLP/Weighted/Emerging")
    val dist = DistPeeling.densest(DiffGraph.positivePart(ds.df), eps = 0.05)
    val local = Peeling.greedy(ds.wg.positivePart)
    // same planted structure should dominate both
    assert(dist.density >= local.density / 2.1 - 1e-9)
    assert(math.abs(dist.density - local.density) <= 0.25 * local.density,
      s"dist=${dist.density} local=${local.density}")
  }
}
