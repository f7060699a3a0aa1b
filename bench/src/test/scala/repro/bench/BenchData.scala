package repro.bench

import repro.SparkSpec
import repro.harness.{Datasets, DiffSet, Sizes}

/** One shared set of bench-scale configurations for every bench suite (suites
  * run sequentially in one JVM, so the expensive generation happens once).
  */
object BenchData {
  lazy val sets: Seq[DiffSet] = Datasets.build(SparkSpec.shared, Sizes.bench)
  lazy val byKey: Map[String, DiffSet] = sets.map(ds => ds.key -> ds).toMap
}
