package repro.ampc

import java.util.concurrent.ConcurrentHashMap

/** Simulated distributed hash table — the side-channel that turns MPC into
  * AMPC (§2 of the paper).
  *
  * Under `local[*]` every executor is a thread of the driver JVM, so a
  * JVM-global concurrent map faithfully plays the role of the paper's
  * RDMA key-value store: any "machine" (task) can read any key written in
  * a previous round. What the real store charges in network latency and
  * bytes is *recorded* here (via [[Metrics]]) and priced by [[CostModel]].
  *
  * The store belongs to the run whose ledger it charges: it lives until
  * `close()` or until the ledger closes. Instances are serializable
  * handles: closures capture only the ledger handle and the store key, and
  * re-resolve the backing map lazily on the executor side.
  */
final class Dht[V] private[ampc] (val tag: String, storeKey: Long, metrics: Metrics)
    extends Serializable {
  @transient private lazy val map: ConcurrentHashMap[Long, (AnyRef, Int)] =
    metrics.store(storeKey)

  /** Write a key-value pair of approximately `bytes` bytes. */
  def put(key: Long, value: V, bytes: Int): Unit = {
    map.put(key, (value.asInstanceOf[AnyRef], bytes))
    metrics.kvWrite(bytes.toLong)
  }

  /** Networked lookup: always counted as one KV query of the stored size. */
  def get(key: Long): Option[V] = {
    val e = map.get(key)
    if (e == null) { metrics.kvQuery(1L); None }
    else { metrics.kvQuery(e._2.toLong); Some(e._1.asInstanceOf[V]) }
  }

  /** Lookup without cost accounting — tests and driver-side assembly only. */
  def peek(key: Long): Option[V] =
    Option(map.get(key)).map(_._1.asInstanceOf[V])

  def size: Int = map.size

  def close(): Unit = metrics.closeStore(storeKey)
}

object DhtRegistry {
  /** Create a fresh named store in the run of `metrics`, charging reads/writes to it. */
  def create[V](tag: String, metrics: Metrics): Dht[V] =
    new Dht[V](tag, metrics.openStore(new ConcurrentHashMap[Long, (AnyRef, Int)]()), metrics)
}

/** Per-run result cache — the paper's *caching optimization* (§5.3).
  *
  * The AMPC algorithms memoize answers of the recursive query processes
  * ("is vertex v in the MIS", "whom is vertex v matched to"). When
  * `enabled` the cache is a JVM-shared map (an idealized version of the
  * paper's per-machine arrays — strictly stronger, which only widens the
  * measured caching-vs-no-caching gap in the same direction the paper
  * reports). When disabled every probe misses, reproducing the
  * caching-off ablation of Figure 4. Like a [[Dht]], the cache is a store
  * of the run whose ledger it charges.
  */
final class KvCache[V] private[ampc] (
    val tag: String,
    val enabled: Boolean,
    storeKey: Long,
    metrics: Metrics,
) extends Serializable {
  @transient private lazy val map: ConcurrentHashMap[Long, AnyRef] =
    metrics.store(storeKey)

  def get(key: Long): Option[V] =
    if (!enabled) None
    else {
      val v = map.get(key)
      if (v == null) None
      else { metrics.cacheHit(); Some(v.asInstanceOf[V]) }
    }

  def put(key: Long, value: V): Unit =
    if (enabled) map.put(key, value.asInstanceOf[AnyRef]): Unit

  def size: Int = map.size

  def close(): Unit = metrics.closeStore(storeKey)
}

object KvCache {
  def create[V](tag: String, enabled: Boolean, metrics: Metrics): KvCache[V] =
    new KvCache[V](tag, enabled, metrics.openStore(new ConcurrentHashMap[Long, AnyRef]()), metrics)
}
