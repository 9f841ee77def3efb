package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Metrics, RunMetrics}
import repro.core.Priorities
import repro.graphs.GraphOps
import repro.ref.Reference

/** MPC Minimum Spanning Forest — classic Borůvka, as implemented in §5.5.
  *
  * Each phase groups every edge at both of its current endpoints
  * (shuffle 1). In each supervertex's group it keeps only the lightest
  * edge to each neighboring supervertex, and finds the minimum incident
  * edge — in the MSF by the cut property, and emitted. Every vertex
  * colors itself red or blue by a per-phase hash, and each blue vertex
  * whose minimum edge points to a red vertex contracts into it. The kept
  * edges, each emitted once from its smaller endpoint, are relabeled
  * through the parent mapping (shuffles 2–3) and self-loops drop. The
  * first relabel happens inside the group, which already sits at that
  * endpoint, so Spark runs two physical shuffles per phase; the ledger
  * counts three, as Table 3 does for the paper's implementation (33–84
  * shuffles at 11–28 phases). Below `localThreshold` edges the residual is
  * finished in memory. Reaching `maxPhases` with edges left throws.
  *
  * A parallel edge that is not the lightest between its two supervertices
  * closes a cycle as its heaviest edge, so dropping it never drops an MSF
  * edge; it only shrinks the edge count that drives the cutoff and the
  * shuffle bytes.
  *
  * Edges carry their original endpoints throughout, so the output forest
  * is expressed in input ids. Weight ties break by (w, origSrc, origDst),
  * the same total order as [[Reference.kruskal]] — the forest is unique.
  */
object MpcMsf {

  /** A working edge: current endpoints (u, v), weight, and its original
    * endpoints with ou < ov.
    */
  private[mpc] final case class Edge(u: Long, v: Long, w: Double, ou: Long, ov: Long) {
    def flip: Edge = copy(u = v, v = u)
    /** Precedes `o` in the (w, ou, ov) order. */
    def lighter(o: Edge): Boolean = {
      val c = java.lang.Double.compare(w, o.w)
      c < 0 || (c == 0 && (ou < o.ou || (ou == o.ou && ov < o.ov)))
    }
  }

  final case class Result(
      msf: Seq[(Long, Long, Double)],
      phases: Int,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      weightedEdges: DataFrame,
      seed: Long,
      localThreshold: Long = 2048,
      maxPhases: Int = 200,
  ): Result = {
    val metrics = Metrics.fresh("mpc-msf")
    val part = MpcRdd.partitioner(spark)
    var cur = weightedEdges
      .select("src", "dst", "weight")
      .rdd
      .map { r =>
        val u = r.getLong(0); val v = r.getLong(1)
        Edge(u, v, r.getDouble(2), math.min(u, v), math.max(u, v))
      }
    try {
      var edgeCount = MpcRdd.materialise(cur)(_ => 1L)._2
      val msf = scala.collection.mutable.Set.empty[(Long, Long, Double)]
      var phases = 0
      var done = false
      while (!done) {
        if (edgeCount == 0) done = true
        else if (edgeCount <= localThreshold) {
          // In-memory finish: Kruskal over current labels, emitting originals.
          val uf = new Reference.UnionFind()
          cur.collect().sortBy(e => (e.w, e.ou, e.ov)).foreach { e =>
            if (uf.union(e.u, e.v)) msf += ((e.ou, e.ov, e.w))
          }
          done = true
        } else if (phases == maxPhases) MpcRdd.capReached("MpcMsf", phases, edgeCount)
        else {
          phases += 1
          val phaseSeed = Priorities.splitmix64(seed ^ (1000L + phases))
          def red(x: Long): Boolean = (Priorities.splitmix64(x ^ phaseSeed) & 1L) == 0L

          // Shuffle 1: group edges by supervertex; per group the minimum
          // edge, the parent, and the lightest edge to each neighbor that
          // is larger than the supervertex.
          metrics.shuffle(2 * edgeCount * GraphOps.WeightedEdgeBytes)
          val groups = cur
            .flatMap(e => Iterator((e.u, e), (e.v, e.flip)))
            .groupByKey(part)
            .mapPartitions(
              _.map { case (u, es) =>
                val lightest = scala.collection.mutable.LongMap.empty[Edge]
                es.foreach { e =>
                  val b = lightest.getOrNull(e.v)
                  if (b == null || e.lighter(b)) lightest(e.v) = e
                }
                val min = lightest.valuesIterator.reduce((a, b) => if (a.lighter(b)) a else b)
                val parent = if (!red(u) && red(min.v)) min.v else u
                (u, (min, parent, lightest.valuesIterator.filter(u < _.v).toArray))
              },
              preservesPartitioning = true,
            )
            .persist()

          // All minimum edges are MSF edges (cut property).
          groups.map(_._2._1).collect().foreach(e => msf += ((e.ou, e.ov, e.w)))

          // Shuffles 2–3: relabel both endpoints through the parent map.
          metrics.shuffle(edgeCount * GraphOps.WeightedEdgeBytes)
          metrics.shuffle(edgeCount * GraphOps.WeightedEdgeBytes)
          val next = groups
            .flatMap { case (_, (_, p, kept)) => kept.iterator.map(e => (e.v, e.copy(u = p))) }
            .join(groups.mapValues(_._2), part)
            .flatMap { case (_, (e, p)) =>
              if (e.u == p) Iterator.empty // self-loop after contraction
              else Iterator.single(e.copy(v = p))
            }
          edgeCount = MpcRdd.materialise(next)(_ => 1L)._2
          cur.unpersist()
          groups.unpersist()
          cur = next
        }
      }
      Result(msf.toSeq, phases, metrics.snapshot)
    } finally {
      cur.unpersist()
      metrics.close()
    }
  }
}
