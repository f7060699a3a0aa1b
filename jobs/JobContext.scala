package repro.jobs

import org.apache.spark.sql.SparkSession

/** The SparkSession every driver program outside the test suites starts
  * from: master from `SPARK_MASTER` (default `local[*]`) and broadcast joins
  * off, so the difference-graph join always shuffles. The paper tables
  * themselves run through the bench suites (`sbt "bench/test"`).
  */
object JobContext {
  def spark(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
