package repro.mpc

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Plumbing the MPC phase loops share.
  *
  * The loops run on pair RDDs keyed by vertex and hash-partitioned with
  * `spark.sql.shuffle.partitions` partitions, so joining a message set
  * against the persisted state shuffles only the messages. Each phase
  * persists its next state and materialises it with one job, whose
  * (records, edges) count feeds the in-memory cutoff and the declared
  * shuffle bytes. A Dataset loop instead pays Catalyst planning and
  * several size actions on every phase.
  *
  * No checkpoint cuts the lineage. The MSF and CC states start at a
  * shuffle; the MIS and MM states chain through their co-partitioned
  * joins, a few RDDs per phase over O(log n) phases, and their closures
  * capture no per-phase data.
  */
private[mpc] object MpcRdd {

  def partitioner(spark: SparkSession): HashPartitioner =
    new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)

  /** Adjacency lists of a (src, dst) edge list, both orientations, sorted
    * neighbors (duplicates kept), partitioned by vertex. Reads the input
    * once; building it is input formatting, not a counted phase shuffle.
    */
  def adjacency(edges: DataFrame, part: HashPartitioner): RDD[(Long, Array[Long])] =
    edges
      .select("src", "dst")
      .rdd
      .flatMap { r =>
        val u = r.getLong(0); val v = r.getLong(1)
        Iterator((u, v), (v, u))
      }
      .groupByKey(part)
      .mapValues(_.toArray.sorted)

  /** Persists `state` and materialises it with one job. Returns the number
    * of records and the sum of `edges` over them.
    */
  def materialise[T](state: RDD[T])(edges: T => Long): (Long, Long) =
    state
      .persist()
      .aggregate((0L, 0L))(
        (acc, t) => (acc._1 + 1, acc._2 + edges(t)),
        (a, b) => (a._1 + b._1, a._2 + b._2),
      )

  /** The error a loop throws when its phase cap leaves edges unprocessed. */
  def capReached(algorithm: String, phases: Int, edgesLeft: Long): Nothing =
    throw new IllegalStateException(
      s"$algorithm reached its cap of $phases phases with $edgesLeft edges left")
}
