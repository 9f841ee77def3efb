package org.apache.spark

/** Spark jobs run under a job group, read once every queued listener
  * event has been delivered to the status store. (The listener bus is
  * Spark-private, hence this package.)
  */
object JobCount {
  def inGroup(sc: SparkContext, group: String): Int = {
    sc.listenerBus.waitUntilEmpty()
    sc.statusTracker.getJobIdsForGroup(group).length
  }
}
