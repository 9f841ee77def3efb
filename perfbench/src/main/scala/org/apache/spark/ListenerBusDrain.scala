package org.apache.spark

/** Waits until every queued listener event has been delivered, so the
  * benchmark's listener has seen all jobs of a call before they are
  * attributed. (The listener bus is Spark-private, hence this package.)
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
