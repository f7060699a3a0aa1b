package repro.jobs

import org.apache.spark.sql.SparkSession

/** The SparkSession every driver program outside the test suites starts
  * from: master from `SPARK_MASTER` (default `local[*]`) and broadcast joins
  * off, so DistPeeling's edge filters, the only joins, always shuffle. The
  * paper tables themselves run through the claim classes of the test sources:
  * `sbt test` runs them at `Sizes.tiny`, `sbt "bench/test"` at `Sizes.bench`.
  */
object JobContext {
  def spark(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
