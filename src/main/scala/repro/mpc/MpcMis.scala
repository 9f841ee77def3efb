package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Metrics, RunMetrics}
import repro.core.Priorities
import repro.ref.Reference

/** MPC Maximal Independent Set — the rootset-based O(log n)-round
  * algorithm of Figure 2 (Blelloch–Fineman–Shun, analysis by
  * Fischer–Noever).
  *
  * Each phase: vertices whose rank precedes all of their neighbors' join
  * the MIS (a map — priorities are hashes, so no shuffle); the rootset
  * and its neighborhood are removed, which costs the phase's two
  * shuffles — marking removed nodes (a join) and pruning removed
  * neighbors out of the surviving adjacency lists (a join). Once the
  * residual graph has at most `localThreshold` edges it is solved on a
  * single machine (§5.3 found 5·10⁷ a good cutoff at cluster scale).
  * Reaching `maxPhases` with edges left throws.
  *
  * Computes the same lexicographically-first MIS as [[repro.core.AmpcMis]]
  * because both draw ranks from [[Priorities]] with the same seed.
  */
object MpcMis {

  final case class Result(
      mis: Set[Long],
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
    val metrics = Metrics.fresh("mpc-mis")
    val part = MpcRdd.partitioner(spark)
    // Input representation: adjacency lists, one KV pair per vertex —
    // the PCollection<KV<NodeId, Node>> of Figure 2.
    var adj = MpcRdd.adjacency(edges, part)
    try {
      var (nodeCount, edgeCount) = MpcRdd.materialise(adj)(_._2.length.toLong)
      val mis = scala.collection.mutable.Set.empty[Long]
      var phases = 0
      var done = false
      while (!done) {
        if (nodeCount == 0) done = true
        else if (edgeCount <= localThreshold) {
          // In-memory switch: finish the residual graph on one machine.
          val local = adj.collect()
          val vs = local.map(_._1).toSeq
          val es = local.flatMap { case (v, ns) => ns.map(u => (v, u)) }.filter(p => p._1 < p._2).toSeq
          mis ++= Reference.lfMis(vs, es, Priorities.vertexRank(_, seed))
          done = true
        } else if (phases == maxPhases) MpcRdd.capReached("MpcMis", phases, edgeCount / 2)
        else {
          phases += 1
          // (1) LocalMinima — a map over adjacency lists.
          val rootset = adj.filter { case (v, ns) =>
            val vr = Priorities.vertexRank(v, seed)
            ns.forall(u => Priorities.precedes(vr, v, Priorities.vertexRank(u, seed), u))
          }
          mis ++= rootset.keys.collect()

          // (2) ids of rootset nodes and their neighbors — a map.
          val toRemove = rootset.flatMap { case (v, ns) => (Iterator.single(v) ++ ns.iterator).map(x => (x, true)) }

          // (3) Mark nodes to remove — shuffle 1 (join graph with ids).
          metrics.shuffle((2 * edgeCount + nodeCount) * 8)
          val marked = adj.cogroup(toRemove, part).flatMapValues { case (as, rs) =>
            as.iterator.map(ns => (ns, rs.nonEmpty))
          }

          // (4) Removed nodes emit the edges to delete — a map.
          val deletions = marked.flatMap { case (v, (ns, removed)) =>
            if (removed) ns.iterator.map(u => (u, v)) else Iterator.empty
          }

          // (5) Prune survivors' adjacency lists — shuffle 2.
          metrics.shuffle((2 * edgeCount + nodeCount) * 8)
          val next = marked.filter(!_._2._2).cogroup(deletions, part).flatMapValues { case (as, ds) =>
            val del = ds.toSet
            as.iterator.map { case (ns, _) => ns.filterNot(del) }
          }
          val size = MpcRdd.materialise(next)(_._2.length.toLong)
          adj.unpersist()
          adj = next
          nodeCount = size._1; edgeCount = size._2
        }
      }
      Result(mis.toSet, phases, metrics.snapshot)
    } finally {
      adj.unpersist()
      metrics.close()
    }
  }
}
