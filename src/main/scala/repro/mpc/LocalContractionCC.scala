package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Metrics, RunMetrics}
import repro.core.Priorities
import repro.graphs.GraphOps
import repro.ref.Reference

/** MPC connectivity by local contractions — the CC-LocalContraction
  * baseline of §5.6 (Łącki–Mirrokni–Włodarczyk), which prior work found
  * to be the fastest MPC connectivity implementation.
  *
  * Each round every vertex hangs onto its minimum neighbor if that
  * neighbor is smaller than itself, and the resulting stars contract.
  * On a cycle of random ids this removes all non-local-minima in one
  * application — about a 3× shrink per round, matching the paper's
  * measured 2.59–3× — at three shuffles per round (min-neighbor
  * aggregation + two relabeling joins; the original-vertex label table is
  * maintained inside the relabeling rounds). Below `localThreshold`
  * edges the residual is finished on one machine. Reaching `maxRounds`
  * with edges left throws.
  *
  * The state is one record per supervertex: its distinct neighbors and
  * the original vertices it contains. It is already grouped by vertex,
  * so Spark runs two physical shuffles per round (parents to neighbors,
  * then regrouping by parent); the ledger counts the algorithm's three.
  */
object LocalContractionCC {

  final case class Result(
      /** (id, component) for every non-isolated input vertex. */
      labels: DataFrame,
      numComponents: Long,
      rounds: Int,
      /** Current-graph edge count after every round (shrink trajectory). */
      edgeTrajectory: Seq[Long],
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long = 0,
      localThreshold: Long = 2048,
      maxRounds: Int = 200,
  ): Result = {
    import spark.implicits._
    val metrics = Metrics.fresh("mpc-cc")
    val part = MpcRdd.partitioner(spark)
    // supervertex -> (neighbors, original vertices); round 0 keeps the
    // input's duplicate edges, as its edge count does.
    var cur = MpcRdd
      .adjacency(edges, part)
      .mapPartitions(_.map { case (v, ns) => (v, (ns, Array(v))) }, preservesPartitioning = true)
    try {
      // Every edge sits in the lists of both endpoints.
      var (vertexCount, edgeCount) = MpcRdd.materialise(cur)(_._2._1.length.toLong)
      edgeCount /= 2
      var rounds = 0
      var done = false
      val traj = scala.collection.mutable.ArrayBuffer.empty[Long]
      var labels: DataFrame = null
      var numComponents = 0L
      while (!done) {
        traj += edgeCount
        if (edgeCount <= localThreshold) {
          // In-memory finish: union-find over the residual supergraph.
          val rest = cur.flatMap { case (v, (ns, _)) => ns.iterator.filter(v < _).map(u => (v, u)) }.collect()
          val compOf = Reference.connectedComponents(rest.flatMap(e => Seq(e._1, e._2)).distinct.toSeq, rest.toSeq)
          // Supervertices without edges are components of their own.
          numComponents = vertexCount - compOf.size + compOf.values.toSet.size
          labels = cur
            .flatMap { case (v, (_, members)) =>
              val c = compOf.getOrElse(v, v)
              members.iterator.map(o => (o, c))
            }
            .toDF("id", "component")
            .persist()
          labels.count()
          done = true
        } else if (rounds == maxRounds) MpcRdd.capReached("LocalContractionCC", rounds, edgeCount)
        else {
          rounds += 1
          // Shuffle 1: hang every vertex onto its minimum-*rank* neighbor
          // (fresh random ranks each round, as the hashed priorities of
          // the real implementation — raw ids would stall on
          // sequentially-numbered cycles). The state is already grouped
          // by vertex, so this runs inside the next two steps.
          val roundSeed = Priorities.splitmix64(seed ^ (7000L + rounds))
          def parent(v: Long, ns: Array[Long]): Long = {
            var best = v
            var bestR = Priorities.vertexRank(v, roundSeed)
            ns.foreach { u =>
              val ru = Priorities.vertexRank(u, roundSeed)
              if (Priorities.precedes(ru, u, bestR, best)) { best = u; bestR = ru }
            }
            best
          }
          metrics.shuffle(2 * edgeCount * GraphOps.EdgeBytes)

          // Shuffle 2: every vertex sends its parent to its neighbors.
          metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
          val parentMsgs = cur.flatMap { case (v, (ns, _)) =>
            val p = parent(v, ns)
            ns.iterator.map(u => (u, p))
          }

          // Shuffle 3: every vertex sends its relabeled edges and its
          // original vertices to its parent, which drops loops and dedups
          // (the label table travels with the state).
          metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
          val next = cur
            .cogroup(parentMsgs, part)
            .flatMap { case (u, (states, ps)) =>
              states.iterator.map { case (ns, members) =>
                val p = parent(u, ns)
                (p, (ps.iterator.filter(_ != p).toArray, members))
              }
            }
            .groupByKey(part)
            .mapValues { parts =>
              (parts.iterator.flatMap(_._1.iterator).toArray.distinct, parts.iterator.flatMap(_._2.iterator).toArray)
            }
          val size = MpcRdd.materialise(next)(_._2._1.length.toLong)
          cur.unpersist()
          cur = next
          vertexCount = size._1; edgeCount = size._2 / 2
        }
      }
      Result(labels, numComponents, rounds, traj.toSeq, metrics.snapshot)
    } finally {
      cur.unpersist()
      metrics.close()
    }
  }
}
