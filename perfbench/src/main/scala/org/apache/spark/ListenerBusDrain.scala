package org.apache.spark

/** Waits until every queued listener event has been delivered.
  *
  * Job, stage and task events reach listeners asynchronously; the counters
  * of the traced run are read only after this returns. `listenerBus` is
  * `private[spark]`, hence this one-line object in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
