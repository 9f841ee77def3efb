package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Metrics, RunMetrics}
import repro.core.Priorities
import repro.ref.Reference

/** MPC Maximal Matching — the rootset-based algorithm of §5.4, "very
  * similar to our MIS algorithm in the MPC setting".
  *
  * Each phase adds every edge whose rank precedes the rank of all edges
  * adjacent to it (a local minimum of the line graph), then removes
  * matched vertices with their incident edges. Two shuffles per phase:
  * exchanging per-endpoint minimum ranks so both endpoints of a candidate
  * edge can agree it is matched, and pruning the matched vertices out of
  * the surviving adjacency lists. Below `localThreshold` edges the
  * residual graph is finished on one machine. Reaching `maxPhases` with
  * edges left throws.
  *
  * Computes the same lexicographically-first matching as
  * [[repro.core.AmpcMatching]] (same [[Priorities]] ranks).
  */
object MpcMatching {

  final case class Result(
      matching: Set[(Long, Long)],
      phases: Int,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long,
      localThreshold: Long = 2048,
      maxPhases: Int = 200,
  ): Result = {
    val metrics = Metrics.fresh("mpc-mm")
    val part = MpcRdd.partitioner(spark)
    // Adjacency lists (input formatting, uncounted); edge ranks are
    // hashes, recomputed where needed.
    var adj = MpcRdd.adjacency(edges, part)
    try {
      var (nodeCount, edgeCount) = MpcRdd.materialise(adj)(_._2.length.toLong)
      val matched = scala.collection.mutable.Set.empty[(Long, Long)]
      var phases = 0
      var done = false
      while (!done) {
        if (edgeCount == 0) done = true
        else if (edgeCount <= localThreshold) {
          val local = adj.collect()
          val es = local
            .flatMap { case (v, ns) => ns.map(u => (v, u)) }
            .filter(p => p._1 < p._2)
            .toSeq
          matched ++= Reference.lfMatching(es, Priorities.edgeRank(_, _, seed))
          done = true
        } else if (phases == maxPhases) MpcRdd.capReached("MpcMatching", phases, edgeCount / 2)
        else {
          phases += 1
          // v's minimum-rank incident edge, as (neighbor, rank).
          def minEdge(v: Long, ns: Array[Long]): (Long, Long) = {
            var best = ns(0); var bestR = Priorities.edgeRank(v, best, seed)
            ns.foreach { u =>
              val r = Priorities.edgeRank(v, u, seed)
              if (r < bestR) { best = u; bestR = r }
            }
            (best, bestR)
          }

          // Shuffle 1: every vertex sends its minimum incident rank to
          // all neighbors, so edge (v,u) is recognized at both endpoints
          // as matched iff its rank is minimal at v AND at u.
          metrics.shuffle((2 * edgeCount + nodeCount) * 8)
          val msgs = adj.flatMap { case (v, ns) =>
            if (ns.isEmpty) Iterator.empty
            else {
              val mv = minEdge(v, ns)._2
              ns.iterator.map(u => (u, (v, mv)))
            }
          }
          // Matched decision — a map over the joined records: v's
          // minimum-rank edge (v, u) is matched iff it is u's too.
          val marked = adj
            .cogroup(msgs, part)
            .mapPartitions(
              _.flatMap { case (v, (as, ms)) =>
                as.iterator.map { ns =>
                  val mate =
                    if (ns.isEmpty) None
                    else {
                      val (u, myMin) = minEdge(v, ns)
                      if (ms.exists(m => m._1 == u && m._2 == myMin)) Some(u) else None
                    }
                  (v, (ns, mate))
                }
              },
              preservesPartitioning = true,
            )
          matched ++= marked.flatMap { case (v, (_, mate)) => mate.filter(v < _).map(u => (v, u)) }.collect()

          // Shuffle 2: drop matched vertices and prune their ids from the
          // surviving adjacency lists.
          metrics.shuffle((2 * edgeCount + nodeCount) * 8)
          val deletions = marked.flatMap { case (v, (ns, mate)) =>
            if (mate.isDefined) ns.iterator.map(u => (u, v)) else Iterator.empty
          }
          val next = marked
            .filter(_._2._2.isEmpty)
            .cogroup(deletions, part)
            .flatMapValues { case (as, ds) =>
              val del = ds.toSet
              as.iterator.map(_._1.filterNot(del))
            }
          val size = MpcRdd.materialise(next)(_._2.length.toLong)
          adj.unpersist()
          adj = next
          nodeCount = size._1; edgeCount = size._2
        }
      }
      Result(matched.toSet, phases, metrics.snapshot)
    } finally {
      adj.unpersist()
      metrics.close()
    }
  }
}
