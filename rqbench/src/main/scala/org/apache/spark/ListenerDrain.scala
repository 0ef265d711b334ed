package org.apache.spark

/** Waits until every queued listener event has been delivered. The listener
  * bus is internal to Spark, hence this object's package; the benchmark uses
  * it so a pass's task metrics are complete before they are read.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
