package repro

import repro.data.SynthGraphs.TwoGraphs
import repro.harness.{Datasets, DiffSet, Sizes}

/** The two `Datasets.build` fixtures the claim classes run on, one per test
  * JVM: `tiny` for the tier-1 tests, `bench` for the bench suites. Suites run
  * one after another in one JVM, so each fixture is generated once.
  */
object Configs {
  /** The seven generated input pairs `tiny` is built on. */
  lazy val tinyInputs: Map[String, TwoGraphs] = Datasets.inputs(SparkSpec.shared, Sizes.tiny)
  lazy val tiny: Seq[DiffSet] = Datasets.configs(tinyInputs)
  lazy val bench: Seq[DiffSet] = Datasets.build(SparkSpec.shared, Sizes.bench)

  /** The configuration of `sets` with Table II key `key`. */
  def byKey(sets: Seq[DiffSet], key: String): DiffSet = sets.find(_.key == key).get
}
