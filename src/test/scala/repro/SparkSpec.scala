package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.JobContext

/** Base for every Spark test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM. The session is [[JobContext.spark]]'s, so broadcast
  * joins are disabled and the difference-graph joins and DistPeeling's edge
  * filters take the shuffle path they take on large inputs.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = JobContext.spark("repro")
    s.conf.set("spark.sql.shuffle.partitions", 64)
    // one line in the test output naming the heap and parallelism in use
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
