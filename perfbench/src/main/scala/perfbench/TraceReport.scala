package perfbench

/** Per-layer metrics and the attribution report of a traced run.
  *
  * A per-layer metric is taken from the first phase that has it, in the
  * order pass, sub, setup, coverage; the report names that phase.
  */
final class TraceReport(tr: Tracer, counters: Option[SparkCounters]) {
  private val Phases = Seq("pass", "sub", "setup", "coverage")

  private val Times = Seq(
    "synth.generate_ms" -> "synth.generate",
    "diffgraph.join_stats_ms" -> "diffgraph.join_stats",
    "diffgraph.to_wgraph_ms" -> "diffgraph.to_wgraph",
    "wgraph.from_edges_ms" -> "wgraph.from_edges",
    "distpeel.ms" -> "distpeel",
    "wgraph.positive_part_ms" -> "wgraph.positive_part",
    "wgraph.core_numbers_ms" -> "wgraph.core_numbers",
    "wgraph.ego_net_max_ms" -> "wgraph.ego_net_max",
    "peeling.gd_ms" -> "peeling.gd",
    "peeling.gdp_ms" -> "peeling.gdp",
    "dcsgreedy.ms" -> "dcsgreedy",
    "newsea.ms" -> "newsea",
    "allinits.ms" -> "allinits",
    "seacd.ms" -> "seacd",
    "refine.ms" -> "refine",
  )
  private val Counts = Seq(
    "synth.input_rows" -> "count", "diffgraph.edges" -> "count",
    "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count", "spark.shuffle_bytes" -> "bytes",
    "distpeel.rounds" -> "count", "wgraph.csr_bytes" -> "bytes",
    "newsea.seeds" -> "count", "allinits.seeds" -> "count", "allinits.cliques" -> "count",
    "seacd.outer_iters" -> "count", "seacd.expansion_errors" -> "count",
  )
  /** Sub-layers re-run outside the pass, by the pass layer that contains them. */
  private val Parts = Seq(
    "diffgraph.to_wgraph" -> Seq("wgraph.from_edges"),
    "dcsgreedy" -> Seq("peeling.gd", "peeling.gdp"),
    "newsea" -> Seq("wgraph.core_numbers", "wgraph.ego_net_max", "affinity.init_at", "seacd", "refine"),
    "allinits" -> Seq("affinity.init_at", "seacd", "refine"),
  )

  private def count(phase: String, name: String): Option[Double] =
    tr.counter(phase, name).orElse(counters.flatMap(_.get(phase, name)))

  private def first[T](f: String => Option[T]): Option[(String, T)] =
    Phases.iterator.map(p => f(p).map(p -> _)).collectFirst { case Some(x) => x }

  /** `(name, value, unit)` of every per-layer metric, with the phase it came from. */
  val sourced: Seq[(String, Double, String, String)] = {
    val times = Times.map { case (name, layer) =>
      val (p, v) = first(tr.ms(_, layer)).getOrElse("none" -> 0.0)
      (name, v, "ms", p)
    }
    val counts = Counts.map { case (name, unit) =>
      val (p, v) = first(count(_, name)).getOrElse("none" -> 0.0)
      (name, v, unit, p)
    }
    val (pRound, perRound) = first(p => for (ms <- tr.ms(p, "distpeel"); r <- tr.counter(p, "distpeel.rounds")) yield ms / r)
      .getOrElse("none" -> 0.0)
    val (pf, frac) = first(p => for (s <- tr.counter(p, "newsea.seeds"); n <- tr.counter(p, "newsea.n")) yield s / n)
      .getOrElse("none" -> 0.0)
    times ++ counts ++ Seq(("distpeel.ms_per_round", perRound, "ms", pRound), ("newsea.seed_frac", frac, "fraction", pf))
  }

  def perLayer: Seq[(String, Double, String)] = sourced.map { case (n, v, u, _) => (n, v, u) }

  def print(workload: String, untracedS: Double, traced: PassResult, setupS: Double, setupWork: Double, warmS: Double): Unit = {
    val wallMs = traced.wall * 1e3
    val overMs = wallMs - untracedS * 1e3
    def pct(x: Double, of: Double) = if (of > 0) f"${100 * x / of}%5.1f%%" else "    -"
    println(f"trace $workload: untraced pass (median) ${untracedS * 1e3}%.1f ms, traced pass $wallMs%.1f ms, " +
      f"tracing overhead $overMs%.1f ms (${pct(overMs, untracedS * 1e3)} of untraced)" +
      (if (overMs < 0) "; negative: pass-to-pass variation exceeds the cost of tracing" else ""))
    val top = tr.layers("pass")
    top.foreach { case (l, ms) => println(f"trace   layer $l%-24s $ms%12.1f ms ${pct(ms, wallMs)} of traced pass") }
    val rest = wallMs - top.map(_._2).sum
    println(f"trace   unattributed             $rest%12.1f ms ${pct(rest, wallMs)} of traced pass")
    for ((parent, parts) <- Parts; pMs <- top.toMap.get(parent)) {
      val got = parts.flatMap(l => tr.ms("sub", l).map(l -> _))
      got.foreach { case (l, ms) => println(f"trace     $parent%-20s <- $l%-22s $ms%10.1f ms ${pct(ms, pMs)} of $parent (re-run)") }
      val r = pMs - got.map(_._2).sum
      println(f"trace     $parent%-20s <- unattributed           $r%10.1f ms ${pct(r, pMs)} of $parent")
    }
    println(f"trace setup ${setupS * 1e3}%.1f ms: inputs and CSR ${setupWork * 1e3}%.1f ms " +
      tr.layers("setup").map { case (l, ms) => f"($l $ms%.1f ms)" }.mkString(" ") + f", warm-up ${warmS * 1e3}%.1f ms")
    for (p <- Phases; c <- counters)
      println(s"trace spark $p: " + Seq("spark.jobs", "spark.stages", "spark.tasks", "spark.shuffle_bytes")
        .map(k => s"$k=${c.get(p, k).getOrElse(0.0).toLong}").mkString(" "))
    sourced.foreach { case (n, _, _, p) => println(s"trace source $n $p") }
  }
}
