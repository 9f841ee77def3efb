package repro.perfbench

import java.util.concurrent.{CountDownLatch, Executors, TimeUnit}

import repro.ampc.{DhtRegistry, KvCache, Metrics}
import repro.core.{PointerJump, Priorities, TruncatedPrim, WeightAdj}

import scala.collection.mutable

import Stats.median

/** Fixed-seed microbenchmarks of the AMPC runtime (DHT, cache, ledger) and
  * of the MSF building blocks (truncated Prim, pointer jumping), run on
  * the driver over a workload's own adjacency. Every store is created
  * through the program's registries and closed before returning.
  */
object Micro {

  private val Reps = 5

  @volatile private var sink = 0L

  def run(edges: Seq[(Long, Long)], algSeed: Long, seed: Long, threads: Int): Map[String, Double] = {
    val adjB = mutable.LongMap.empty[mutable.ArrayBuffer[Long]]
    edges.foreach { case (u, v) =>
      adjB.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += v
      adjB.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += u
    }
    val adj = adjB.map { case (k, b) => k -> b.toArray }
    val vs = adj.keys.toArray.sorted
    // Key stream: a seeded random vertex, then a random neighbor of it —
    // so hot (high-degree) keys recur as often as the graph makes them.
    val keys = Array.tabulate(1 << 18) { i =>
      val h = Priorities.splitmix64(seed ^ Priorities.splitmix64(i.toLong))
      val a = adj(vs(java.lang.Long.remainderUnsigned(h, vs.length.toLong).toInt))
      a(java.lang.Long.remainderUnsigned(h >>> 20, a.length.toLong).toInt)
    }
    val out = mutable.LinkedHashMap.empty[String, Double]
    val metrics = Metrics.fresh("perfbench-micro")
    try {
      for ((t, tag) <- Seq(1 -> "t1", threads -> "tn")) {
        // Puts go into a fresh store each round, so every put inserts.
        out(s"ampc.dht_put_ns.$tag") = median(Seq.fill(Reps) {
          val stores = mutable.ArrayBuffer.empty[repro.ampc.Dht[Array[Long]]]
          try perOp(t, vs.length / t) { () =>
            val dht = DhtRegistry.create[Array[Long]]("perfbench-put", metrics)
            stores += dht
            (th, i) => { val v = vs(i * t + th); dht.put(v, adj(v), 8 * adj(v).length + 8); 0L }
          } finally stores.foreach(_.close())
        })
        def key(th: Int, i: Int) = keys((i + th * 7919) & (keys.length - 1))
        val dht = DhtRegistry.create[Array[Long]]("perfbench-get", metrics)
        try {
          vs.foreach(v => dht.put(v, adj(v), 8 * adj(v).length + 8))
          out(s"ampc.dht_get_ns.$tag") = median(Seq.fill(Reps) {
            perOp(t, keys.length)(() => (th, i) => dht.get(key(th, i)).fold(0L)(_.length.toLong))
          })
        } finally dht.close()
        val cache = KvCache.create[Boolean]("perfbench-cache", enabled = true, metrics)
        try {
          vs.foreach(v => cache.put(v, (v & 1L) == 0L))
          out(s"ampc.cache_get_ns.$tag") = median(Seq.fill(Reps) {
            perOp(t, keys.length)(() => (th, i) => if (cache.get(key(th, i)).contains(true)) 1L else 0L)
          })
        } finally cache.close()
        out(s"ampc.metrics_record_ns.$tag") = median(Seq.fill(Reps) {
          perOp(t, keys.length)(() => (_, i) => { metrics.kvQuery((i & 15).toLong); 0L })
        })
      }
      out ++= prim(adj, vs, algSeed, seed, metrics)
      out("core.PointerJump.root_ns") = pointerJump(adj, vs, algSeed, seed, metrics)
    } finally metrics.close()
    out.toMap
  }

  /** Driver-side truncated Prim searches from a fixed vertex sample over a
    * DHT holding the weight-sorted adjacency (degree weights, §5.2).
    */
  private def prim(adj: collection.Map[Long, Array[Long]], vs: Array[Long], algSeed: Long,
                   seed: Long, metrics: Metrics): Seq[(String, Double)] = {
    val dht = DhtRegistry.create[WeightAdj]("perfbench-prim", metrics)
    try {
      val wadj = adj.map { case (v, ns) =>
        val sorted = ns.map(u => (u, (ns.length + adj(u).length).toDouble))
          .sortBy { case (u, w) => (w, math.min(v, u), math.max(v, u)) }
        v -> WeightAdj(sorted.map(_._1), sorted.map(_._2))
      }
      wadj.foreach { case (v, a) => dht.put(v, a, 16 * a.length + 8) }
      val sample = Array.tabulate(math.min(2000, vs.length)) { i =>
        vs(java.lang.Long.remainderUnsigned(Priorities.splitmix64(seed ^ (i.toLong << 1)), vs.length.toLong).toInt)
      }
      var visits = 0L
      val us = median(Seq.fill(Reps) {
        visits = 0L
        val t0 = System.nanoTime()
        sample.foreach { v =>
          visits += TruncatedPrim.search(v, wadj(v), algSeed, dht, metrics, 64).count(_.kind == 0)
        }
        (System.nanoTime() - t0) / 1e3 / sample.length
      })
      Seq("core.TruncatedPrim.search_us" -> us, "core.TruncatedPrim.visits" -> visits.toDouble / sample.length)
    } finally dht.close()
  }

  /** Pointer jumping to the root over a parent DHT: each vertex points at
    * its highest-priority neighbor when that neighbor precedes it, which
    * gives a forest with the same rank-decreasing parents as AMPC MSF.
    */
  private def pointerJump(adj: collection.Map[Long, Array[Long]], vs: Array[Long], algSeed: Long,
                          seed: Long, metrics: Metrics): Double = {
    def rank(v: Long) = Priorities.vertexRank(v, algSeed)
    val parents = DhtRegistry.create[Long]("perfbench-parent", metrics)
    try {
      vs.foreach { v =>
        val best = adj(v).minBy(u => (rank(u), u))
        if (Priorities.precedes(rank(best), best, rank(v), v)) parents.put(v, best, 16)
      }
      val order = vs.sortBy(v => Priorities.splitmix64(v ^ seed))
      median(Seq.fill(Reps) {
        val cache = KvCache.create[Long]("perfbench-root", enabled = true, metrics)
        try {
          val t0 = System.nanoTime()
          var acc = 0L
          order.foreach(v => acc += PointerJump.root(v, parents, cache, metrics))
          sink += acc
          (System.nanoTime() - t0).toDouble / order.length
        } finally cache.close()
      })
    } finally parents.close()
  }

  /** Nanoseconds per operation per thread: `threads` threads each run `ops`
    * operations at once. `round()` makes each round's operation `(thread,
    * i) => result`; one untimed round warms up first.
    */
  private def perOp(threads: Int, ops: Int)(round: () => (Int, Int) => Long): Double = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      def timed(): Long = {
        val op = round()
        val ready = new CountDownLatch(threads)
        val go = new CountDownLatch(1)
        val done = new CountDownLatch(threads)
        (0 until threads).foreach { th =>
          pool.execute { () =>
            ready.countDown(); go.await()
            var acc = 0L
            var i = 0
            while (i < ops) { acc += op(th, i); i += 1 }
            Micro.synchronized(sink += acc)
            done.countDown()
          }
        }
        ready.await()
        val t0 = System.nanoTime()
        go.countDown(); done.await()
        System.nanoTime() - t0
      }
      timed()
      timed().toDouble / ops
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }
}
