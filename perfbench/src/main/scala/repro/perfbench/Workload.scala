package repro.perfbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.ampc.RunMetrics
import repro.core._
import repro.graphs.{GraphGen, GraphOps}
import repro.mpc._
import repro.ref.Reference

import scala.jdk.CollectionConverters._

/** Settings every workload and run shares (perfbench/README.md lists them). */
object Fixed {
  /** Seed of every algorithm call. */
  val AlgSeed = 7L
  /** Seed of every base graph; `--seed` only places the salt cycle. */
  val BaseSeed = 1L
  /** Vertices of the disjoint cycle `--seed` places beside the base graph. */
  val SaltCycle = 16L
  /** MPC in-memory cutoff: max(256, m / 64). */
  def cutoff(m: Long): Long = math.max(256L, m / 64)
  /** `AmpcMsf` truncated-Prim search budget. */
  val SearchBudget = 64
  /** `AmpcTwoCycle` samples one vertex in this many. */
  val SampleInv = 64
  /** Set-ups per run; `setup_s` is their median. */
  val Setups = 3
  /** Passes run and discarded before the timed ones. */
  val WarmupPasses = 2
  /** Timed passes per run, however short `--seconds` is. */
  val MinPasses = 5
  /** Spark settings of every session, besides master `local[N]`. Adaptive
    * execution is off: on inputs this small it only re-plans every stage,
    * which made a pass about a fifth slower.
    */
  val SparkConf = Seq(
    "spark.sql.adaptive.enabled" -> "false",
    "spark.sql.shuffle.partitions" -> "4",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.retainedJobs" -> "100",
    "spark.ui.retainedStages" -> "100",
    "spark.ui.retainedTasks" -> "1000",
    "spark.sql.ui.retainedExecutions" -> "100",
  )
}

/** One algorithm call of a workload, as listed in workloads.json. */
final case class CallSpec(side: String, algorithm: String, declaredShuffles: Option[Long])

final case class WorkloadSpec(name: String, graph: JsonNode, calls: Seq[CallSpec]) {
  def side(s: String): Seq[CallSpec] = calls.filter(_.side == s)
  def weighted: Boolean = graph.path("weights").asText("") == "degree"
}

object WorkloadSpec {
  def load(config: java.io.File): Map[String, WorkloadSpec] =
    new ObjectMapper().readTree(config).get("workloads").fields().asScala.map { e =>
      val calls = e.getValue.get("calls").elements().asScala.map { c =>
        CallSpec(c.get("side").asText(), c.get("algorithm").asText(),
          Option(c.get("declared_shuffles")).map(_.asLong()))
      }.toSeq
      e.getKey -> WorkloadSpec(e.getKey, e.getValue.get("graph"), calls)
    }.toMap
}

/** The materialised input graph of one workload: canonical (src, dst)
  * rows, plus a `weight` column when the workload is weighted.
  */
final case class Input(edges: DataFrame, m: Long)

/** Generation of a workload's graph from the benchmark seed. */
object Inputs {

  /** Generate and materialise the input. Returns the input and the
    * seconds spent generating and weighting it.
    *
    * An RMAT or uniform graph is the workload's base graph, fixed by
    * [[Fixed.BaseSeed]], plus a disjoint cycle on [[Fixed.SaltCycle]]
    * vertices whose ids follow `seed`. The base graph's structure and
    * labels stay the same from seed to seed, so seeds do not move the MPC
    * loops' phase counts (MPC MSF runs 17 to 26 phases on uniform graphs
    * drawn with different seeds); the cycle makes every seed's input, and
    * its counters, distinct. The two cycles of `two_cycles` instead shift
    * their ids by an offset that follows `seed`, so they stay exactly two.
    */
  def build(spark: SparkSession, wl: WorkloadSpec, seed: Long): (Input, Double, Double) = {
    import spark.implicits._
    val g = wl.graph
    val place = Priorities.splitmix64(seed) & 0xffffL
    val t0 = System.nanoTime()
    def salted(raw: DataFrame, idBound: Long) = {
      val k = Fixed.SaltCycle
      val first = idBound + k * place
      raw.union((0L until k).map(i => (first + i, first + (i + 1) % k)).toDF("src", "dst"))
    }
    val raw = g.get("generator").asText() match {
      case "rmat" =>
        val scale = g.get("scale").asInt()
        salted(GraphGen.rmat(spark, scale, g.get("edge_factor").asInt(), Fixed.BaseSeed,
          g.get("a").asDouble(), g.get("b").asDouble(), g.get("c").asDouble()), 1L << scale)
      case "uniform" =>
        val n = g.get("n").asLong()
        salted(GraphGen.uniform(spark, n, g.get("samples").asLong(), Fixed.BaseSeed), n)
      case "two_cycles" =>
        val k = g.get("k").asLong()
        val offset = 2 * k * place
        GraphGen.twoCycles(spark, k).select((col("src") + offset) as "src", (col("dst") + offset) as "dst")
      case other => sys.error(s"unknown generator $other")
    }
    val edges = GraphOps.canonicalize(raw).persist()
    val m = edges.count()
    val genS = (System.nanoTime() - t0) / 1e9
    val t1 = System.nanoTime()
    val input =
      if (!wl.weighted) edges
      else {
        val w = GraphOps.withDegreeWeights(edges).persist()
        w.count()
        edges.unpersist(true)
        w
      }
    val weightsS = if (wl.weighted) (System.nanoTime() - t1) / 1e9 else 0.0
    (Input(input, m), genS, weightsS)
  }

  /** GraphOps.symmetrize plus group-by-source, materialised: the adjacency
    * build every AMPC algorithm starts with. Returns its seconds.
    */
  def adjacencyBuild(spark: SparkSession, input: Input): Double = {
    import spark.implicits._
    val t0 = System.nanoTime()
    val adj = GraphOps
      .symmetrize(input.edges.select("src", "dst"))
      .as[(Long, Long)]
      .groupByKey(_._1)
      .mapGroups { (v, it) => (v, it.map(_._2).toArray) }
      .persist()
    adj.count()
    val s = (System.nanoTime() - t0) / 1e9
    adj.unpersist(true)
    s
  }
}

/** What one algorithm call returned, reduced to what the benchmark checks
  * and records. `check` compares against the oracle and runs outside every
  * timer; `cleanup` unpersists what the result hands back.
  */
final case class Outcome(
    metrics: RunMetrics,
    rounds: Int,
    check: () => Option[String],
    cleanup: () => Unit,
)

/** Exact answers from `repro.ref.Reference`, computed once per run. */
final class Oracle(wl: WorkloadSpec, input: Input) {
  private lazy val edges = GraphOps.collectEdges(input.edges)
  private lazy val vertices = edges.flatMap(e => Seq(e._1, e._2)).distinct
  private val misBySeed = scala.collection.mutable.Map.empty[Long, Set[Long]]
  private val mmBySeed = scala.collection.mutable.Map.empty[Long, Set[(Long, Long)]]
  private lazy val msf = Reference.kruskal(GraphOps.collectWeighted(input.edges))
    .map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }.toSet
  private lazy val components =
    Reference.connectedComponents(vertices, edges).values.toSet.size.toLong

  def mis(seed: Long): Set[Long] =
    misBySeed.getOrElseUpdate(seed, Reference.lfMis(vertices, edges, Priorities.vertexRank(_, seed)))
  def matching(seed: Long): Set[(Long, Long)] =
    mmBySeed.getOrElseUpdate(seed, Reference.lfMatching(edges, Priorities.edgeRank(_, _, seed)))
  def forest: Set[(Long, Long, Double)] = msf
  def numComponents: Long = components

  /** Compute every answer this workload's calls need. */
  def prepare(): Unit = wl.calls.foreach { c =>
    c.algorithm match {
      case "AmpcMis" | "MpcMis"                 => mis(Fixed.AlgSeed)
      case "AmpcMatching" | "MpcMatching"       => matching(Fixed.AlgSeed)
      case "AmpcMsf" | "MpcMsf"                 => forest
      case "AmpcTwoCycle" | "LocalContractionCC" => numComponents
    }
  }
}

/** Runs one configured call; returns its wall nanoseconds and outcome. */
object Calls {

  private def expect[T](what: String, got: T, want: T): Option[String] =
    if (got == want) None else Some(s"$what differs from the oracle")

  private def shuffles(spec: CallSpec, m: RunMetrics): Option[String] =
    spec.declaredShuffles.filter(_ != m.shuffles).map(w => s"declared shuffles ${m.shuffles}, expected $w")

  def run(spark: SparkSession, spec: CallSpec, in: Input, oracle: Oracle): (Long, Outcome) = {
    val seed = Fixed.AlgSeed
    val cutoff = Fixed.cutoff(in.m)
    def both(a: Option[String], b: Option[String]) = a.orElse(b)
    val t0 = System.nanoTime()
    spec.algorithm match {
      case "AmpcMis" =>
        val r = AmpcMis.run(spark, in.edges, seed, caching = true)
        val dt = System.nanoTime() - t0
        dt -> Outcome(r.metrics, r.passes,
          () => both(expect("MIS", r.mis, oracle.mis(seed)), shuffles(spec, r.metrics)), () => ())
      case "AmpcMatching" =>
        val r = AmpcMatching.run(spark, in.edges, seed, caching = true)
        val dt = System.nanoTime() - t0
        dt -> Outcome(r.metrics, r.passes,
          () => both(expect("matching", r.matching, oracle.matching(seed)), shuffles(spec, r.metrics)), () => ())
      case "AmpcMsf" =>
        val r = AmpcMsf.run(spark, in.edges, seed, Fixed.SearchBudget)
        val dt = System.nanoTime() - t0
        dt -> Outcome(r.metrics, 1,
          () => both(expect("MSF", r.msf.toSet, oracle.forest), shuffles(spec, r.metrics)),
          () => r.mapping.unpersist(true): Unit)
      case "AmpcTwoCycle" =>
        val r = AmpcTwoCycle.run(spark, in.edges, seed, Fixed.SampleInv)
        val dt = System.nanoTime() - t0
        dt -> Outcome(r.metrics, 1,
          () => both(
            expect("cycle count", (r.numCycles, r.exact), (oracle.numComponents, true)),
            shuffles(spec, r.metrics)),
          () => ())
      case "MpcMis" =>
        val r = MpcMis.run(spark, in.edges, seed, localThreshold = cutoff)
        val dt = System.nanoTime() - t0
        dt -> Outcome(r.metrics, r.phases, () => expect("MIS", r.mis, oracle.mis(seed)), () => ())
      case "MpcMatching" =>
        val r = MpcMatching.run(spark, in.edges, seed, localThreshold = cutoff)
        val dt = System.nanoTime() - t0
        dt -> Outcome(r.metrics, r.phases, () => expect("matching", r.matching, oracle.matching(seed)), () => ())
      case "MpcMsf" =>
        val r = MpcMsf.run(spark, in.edges, seed, localThreshold = cutoff)
        val dt = System.nanoTime() - t0
        dt -> Outcome(r.metrics, r.phases, () => expect("MSF", r.msf.toSet, oracle.forest), () => ())
      case "LocalContractionCC" =>
        val r = LocalContractionCC.run(spark, in.edges, seed, localThreshold = cutoff)
        val dt = System.nanoTime() - t0
        dt -> Outcome(r.metrics, r.rounds,
          () => expect("component count", r.numComponents, oracle.numComponents),
          () => r.labels.unpersist(true): Unit)
      case other => sys.error(s"unknown algorithm $other")
    }
  }
}
