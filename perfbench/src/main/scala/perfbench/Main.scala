package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.security.MessageDigest

import org.apache.spark.ListenerBusDrain
import repro.core.Peeling
import repro.harness.Sizes
import repro.jobs.JobContext

import scala.collection.mutable

/** Benchmark entry point for one workload in one JVM.
  *
  * {{{
  * Main --workload dcs-answer|topics-exhaustive --seed N --seconds S
  *      --trace 0|1 --out DIR [--commit ID]
  * }}}
  *
  * Prints metric and check lines, then one JSON result as its last stdout
  * line. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
  * same passes untraced, then one traced pass, the sub-layer re-runs and a
  * coverage step, and reports the per-layer metrics.
  */
object Main {

  /** Input sizes: the program's `tiny` profile (see BENCHMARK.json). */
  val sizes: Sizes = Sizes.tiny

  def main(argv: Array[String]): Unit = {
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = args("workload")
    require(Workloads.Names.contains(workload), s"unknown workload $workload")
    val seed = args("seed").toLong
    val seconds = args("seconds").toDouble
    val traced = args("trace") == "1"
    val out = new File(args("out"))

    val spark = JobContext.spark(s"perfbench-$workload")
    val sc = spark.sparkContext
    sc.setLogLevel("ERROR")
    val counters = if (traced) Some(SparkCounters.register(sc)) else None
    val tr = new Tracer(traced)
    val untraced = new Tracer(false)
    def enter(phase: String): Unit = { tr.phase = phase; sc.setLocalProperty(SparkCounters.PhaseKey, phase) }
    val led = new Ledger

    enter("setup")
    val env = Seq(
      "workload" -> workload, "seed" -> seed.toString, "trace" -> (if (traced) "1" else "0"),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString, "master" -> sc.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}", "spark" -> spark.version,
      "commit" -> args.getOrElse("commit", "unknown"), "sizes" -> sizes.toString,
    )
    println("env " + Json.obj(env.map { case (k, v) => k -> Json.str(v) }))

    val setupT0 = System.nanoTime()
    val in = Inputs.generate(spark, sizes, seed, tr)
    val w = Workloads(workload, in)
    w.setup(tr)
    val setupWork = Layers.elapsed(setupT0)
    // one untimed pass, so that the JIT has compiled the kernel; the local
    // kernel is steady after it (see the drift line)
    val warmT0 = System.nanoTime()
    w.pass(untraced, led)
    val warmS = Layers.elapsed(warmT0)
    val setupS = (System.currentTimeMillis() - jvmStart) / 1e3
    println(f"setup $setupS%.3f s: inputs and CSR $setupWork%.3f s, warm-up $warmS%.3f s")

    val passes = mutable.ArrayBuffer.empty[PassResult]
    val t0 = System.nanoTime()
    do passes += w.pass(untraced, led) while (Layers.elapsed(t0) < seconds)
    passes.zipWithIndex.foreach { case (p, i) =>
      println(f"pass ${i + 1}: ${p.wall}%.4f s " + p.stages.map { case (k, v) => f"$k=$v%.4f" }.mkString(" "))
    }
    val passS = median(passes.map(_.wall).toSeq)
    passes.head.stages.map(_._1).foreach { k =>
      println(f"stage $k ${median(passes.map(_.stages.toMap.apply(k)).toSeq)}%.4f s (median of ${passes.size})")
    }
    if (passes.size > 1)
      println(f"drift: last pass / first timed pass = ${passes.last.wall / passes.head.wall}%.3f")

    var tracedPass: Option[PassResult] = None
    if (traced) {
      enter("pass"); tracedPass = Some(w.pass(tr, led))
      enter("sub"); w.sub(tr, led)
      enter("coverage"); coverage(in, tr, led)
      enter("done")
    }

    val digests = (passes ++ tracedPass).map(_.check(led))
    digests.zipWithIndex.foreach { case (d, i) =>
      led.check(s"digest of pass ${i + 1}", d == digests.head, "results differ from the first pass")
    }
    val ratios = w.ratios()
    val gmean = math.exp(ratios.map(math.log).sum / ratios.size)
    val digest = sha256((digests.head :+ ratios.map(r => f"$r%.9e").mkString(" ")).mkString("\n"))
    println(s"digest $workload seed=$seed $digest")
    led.failures.foreach(f => println(s"check FAILED $f"))
    println(s"checks: ${led.attempted} operations, ${led.failed} failed")

    out.mkdirs()
    val stem = s"$workload-seed$seed-trace${if (traced) 1 else 0}"
    val metrics: Seq[(String, Double, String)] =
      if (!traced) Seq(
        ("setup_s", setupS, "s"),
        ("pass_s", passS, "s"),
        ("dcsad_ratio_gmean", gmean, "ratio"),
        ("pass_frac", (led.attempted - led.failed).toDouble / led.attempted, "fraction"),
      )
      else {
        counters.foreach(_ => ListenerBusDrain(sc))
        val rep = new TraceReport(tr, counters)
        rep.print(workload, passS, tracedPass.get, setupS, setupWork, warmS)
        writeLines(new File(out, s"$stem-rows.txt"), tr.rows)
        println(s"trace rows: ${new File(out, s"$stem-rows.txt").getPath}")
        rep.perLayer
      }
    metrics.foreach { case (k, v, u) => println(s"metric $k $v $u") }
    writeLines(new File(out, s"$stem-digest.txt"), digests.head)
    val result = Json.obj(Seq(
      "correct" -> (if (led.failed == 0) "true" else "false"),
      "attempted" -> led.attempted.toString,
      "failed" -> led.failed.toString,
      "metrics" -> Json.obj(metrics.map { case (k, v, u) => k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u))) }),
    ))
    spark.stop()
    println(result)
  }

  /** Every layer once on DBLP/Weighted/Emerging, so each per-layer metric is
    * measured on every workload. This is where the Spark layers (the Table II
    * stats join, DistPeeling) and `WGraph.fromEdges` are timed, since no
    * workload's pass calls them.
    */
  private def coverage(in: Map[String, repro.data.SynthGraphs.TwoGraphs], tr: Tracer, led: Ledger): Unit = {
    val (bases, cfgs) = Inputs.configs(in)
    val c = cfgs.head
    val built = Layers.buildAll(Seq(c), tr, led)
    built.foreach(Layers.fromEdges(_, tr, led))
    val peeled = Layers.distPeel(Seq(c), tr, led)
    bases.foreach(_.unpersist(blocking = true))
    built.foreach(Layers.checkBuilt(_, led))
    for ((key, r) <- peeled; b <- built) Layers.checkDistPeel(key, r, Peeling.greedy(b.g.positivePart).density, led)
    val answers = Layers.answer(built.map(b => Graph(c.key, b.g)), tr, led)
    answers.foreach(a => Layers.answerSub(a, built.head.g, tr, led))
    for (a <- answers; t <- Layers.topics(Seq(Graph(a.key, a.gp)), tr, led)) {
      Layers.checkTopics(t, a.ga.best.f, led)
      Layers.topicsSub(t, tr, led)
    }
    built.foreach(b => tr.count("wgraph.csr_bytes", Layers.csrBytes(b.g)))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).map("%02x".format(_)).mkString

  private def writeLines(f: File, lines: Seq[String]): Unit = {
    val pw = new PrintWriter(f, "UTF-8")
    try lines.foreach(pw.println) finally pw.close()
  }
}

/** Minimal JSON rendering for the result line. */
object Json {
  def str(s: String): String = "\"" + s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  } + "\""
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
