package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.NotificationEmitter
import javax.management.openmbean.CompositeData

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.SparkSession
import repro.ampc.{CostModel, RunMetrics}
import repro.graphs.GraphOps

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One algorithm call inside a pass. `seconds` is the wall time from the
  * call to its returned result; verification ran after the timer stopped.
  */
final case class CallRec(
    spec: CallSpec,
    seconds: Double,
    metrics: RunMetrics,
    rounds: Int,
    error: Option[String],
    verifyS: Double,
    cachedMbAfter: Double,
    spark: Option[SparkUse],
) {
  def modeled: Double =
    (if (spec.side == "ampc") CostModel.Rdma else CostModel.Mpc).seconds(metrics)
}

/** One pass: every call of the workload once, AMPC calls first. */
final case class PassRec(calls: Seq[CallRec], heapPeakMb: Double) {
  def side(s: String): Seq[CallRec] = calls.filter(_.spec.side == s)
  def seconds(s: String): Double = side(s).map(_.seconds).sum
  def modeled(s: String): Double = side(s).map(_.modeled).sum
  def ok: Boolean = calls.forall(_.error.isEmpty)
}

/** Wall-clock benchmark of one workload: AMPC calls against their MPC
  * baselines on the workload's graph for the seed.
  *
  * Usage: Main --config FILE --work-dir DIR --workload NAME --seed N
  *             --seconds S --trace 0|1 [--metrics NAME,NAME,...] [--once 1]
  *
  * Prints a readable report and, as its last line, one JSON object with
  * the end-to-end metrics (trace 0) or the per-layer metrics (trace 1),
  * restricted to and ordered as `--metrics` when it is given.
  * Exits non-zero when any call threw or disagreed with its oracle, or
  * when a metric `--metrics` names was not measured.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, sys.error(s"missing --$k"))
    val workloads = WorkloadSpec.load(new java.io.File(opt("config")))
    val wl = workloads.getOrElse(opt("workload"), sys.error(s"unknown workload ${opt("workload")}"))
    val bench = new Bench(wl, opt("seed").toLong, opt("seconds").toDouble,
      opt("trace") == "1", new java.io.File(opt("work-dir")), opts.get("metrics").map(_.split(',').toSeq),
      opts.get("once").contains("1"))
    val ok = try bench.run() finally bench.stop()
    sys.exit(if (ok) 0 else 1)
  }
}

final class Bench(
    wl: WorkloadSpec,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    workDir: java.io.File,
    only: Option[Seq[String]],
    /** One set-up and one pass, nothing discarded: the run that writes the
      * class-data-sharing archive.
      */
    once: Boolean,
) {
  private val cores = Runtime.getRuntime.availableProcessors
  private val setupRuns = if (once) 1 else Fixed.Setups
  private val warmupPasses = if (once) 0 else Fixed.WarmupPasses
  private val minPasses = if (once) 1 else Fixed.MinPasses
  private var spark: SparkSession = _

  private val started = System.nanoTime()
  private def elapsed: Double = (System.nanoTime() - started) / 1e9
  private def say(s: String): Unit = println(s)
  private def f3(x: Double) = f"$x%.3f"

  private def session(): SparkSession = {
    val b = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"perfbench-${wl.name}")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new java.io.File(workDir, "spark").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new java.io.File(workDir, "warehouse").getAbsolutePath)
    Fixed.SparkConf.foreach { case (k, v) => b.config(k, v) }
    val s = b.getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def stop(): Unit = if (spark != null) spark.stop()

  // ---- driver heap: the peak of the heap still in use after each
  // collection during a pass, that is, of the live data and of garbage
  // already promoted, not of young garbage. The JMX service thread delivers
  // collection notifications asynchronously, so a pass waits until every
  // collection the collectors have counted was delivered before it resets
  // or reads the peak. (The pools' own peak counters read the whole heap:
  // with a fixed 2 GB heap, young collections let eden fill it.)

  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val heapPeak = new AtomicLong()
  private val gcSeen = new AtomicLong()
  collectors.foreach {
    case e: NotificationEmitter =>
      e.addNotificationListener((n, _) => {
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
          val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
            .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
          heapPeak.accumulateAndGet(used, math.max(_, _))
          gcSeen.incrementAndGet()
        }
      }, null, null)
    case _ =>
  }
  private def gcCount: Long = collectors.map(_.getCollectionCount).filter(_ > 0).sum
  /** Collections counted before the listeners saw any. */
  private val gcBefore = gcCount
  /** Waits, at most a second, until every counted collection was delivered. */
  private def awaitGcNotifications(): Unit = {
    val deadline = System.nanoTime() + 1000000000L
    while (gcSeen.get < gcCount - gcBefore && System.nanoTime() < deadline) Thread.sleep(1)
  }

  // ---- isolation: persisted RDDs other than the input are leftovers

  private var baseline = Set.empty[Int]
  private def leftovers = spark.sparkContext.getPersistentRDDs.filter { case (id, _) => !baseline(id) }
  private def leftoverMb: Double = {
    val ids = leftovers.keySet
    spark.sparkContext.getRDDStorageInfo.filter(i => ids(i.id)).map(i => i.memSize + i.diskSize).sum / 1e6
  }

  private var attempted = 0
  private var failed = 0

  private def pass(input: Input, oracle: Oracle, listener: Option[CallListener], idx: Int): PassRec = {
    System.gc()
    awaitGcNotifications()
    heapPeak.set(ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed)
    val calls = wl.side("ampc") ++ wl.side("mpc")
    PassRec(calls.map { spec =>
      attempted += 1
      val group = s"${spec.side}/${spec.algorithm}/$idx"
      val rec =
        try {
          val ((nanos, out), use) = listener match {
            case Some(l) =>
              val (r, u) = l.trace(spark.sparkContext, group)(Calls.run(spark, spec, input, oracle))
              (r, Some(u))
            case None => (Calls.run(spark, spec, input, oracle), None)
          }
          val v0 = System.nanoTime()
          val err = out.check()
          val verifyS = (System.nanoTime() - v0) / 1e9
          out.cleanup()
          CallRec(spec, nanos / 1e9, out.metrics, out.rounds, err, verifyS, leftoverMb, use)
        } catch {
          case NonFatal(e) =>
            CallRec(spec, Double.NaN, RunMetrics(), 0, Some(s"threw $e"), 0.0, leftoverMb, None)
        }
      leftovers.values.foreach(_.unpersist(blocking = true))
      rec.error.foreach { e => failed += 1; say(s"FAILED ${spec.algorithm} in pass $idx: $e") }
      rec
    }, { awaitGcNotifications(); heapPeak.get / 1e6 })
  }

  private def passLine(tag: String, p: PassRec): Unit = {
    val parts = p.calls.map(c => s"${c.spec.algorithm} ${f3(c.seconds)} (${c.rounds} rounds)").mkString(", ")
    say(f"  [${elapsed}%.0f s] $tag: ampc ${f3(p.seconds("ampc"))} s, mpc ${f3(p.seconds("mpc"))} s [$parts], heap ${p.heapPeakMb.round} MB")
  }

  /** Run passes until `budget` seconds have gone and at least `min` ran. */
  private def passes(input: Input, oracle: Oracle, budget: Double, min: Int): Seq[PassRec] = {
    val out = mutable.ArrayBuffer.empty[PassRec]
    val t0 = System.nanoTime()
    while (out.length < min || (System.nanoTime() - t0) / 1e9 < budget) {
      out += pass(input, oracle, None, out.length)
      passLine(s"pass ${out.length}", out.last)
    }
    out.toSeq
  }

  private def distribution(name: String, unit: String, xs: Seq[Double]): Unit = {
    val tail = Stats.tailPercentile(xs.length)
      .map(p => s", p$p ${f3(Stats.quantile(xs, p / 100.0))}").getOrElse("")
    say(s"  $name: median ${f3(Stats.median(xs))} $unit$tail, ${xs.length} samples")
  }

  /** Which counters repeated exactly across passes, per call. */
  private def repeatability(ps: Seq[PassRec]): Unit = {
    say("counter repeatability over timed passes (exact = same value on every pass):")
    ps.head.calls.indices.foreach { i =>
      val cs = ps.map(_.calls(i)).filter(_.error.isEmpty)
      val counters = Seq[(String, CallRec => Double)](
        "declared_shuffles" -> (_.metrics.shuffles.toDouble),
        "declared_shuffle_bytes" -> (_.metrics.shuffleBytes.toDouble),
        "kv_queries" -> (_.metrics.kvQueries.toDouble),
        "kv_read_bytes" -> (_.metrics.kvReadBytes.toDouble),
        "kv_write_bytes" -> (_.metrics.kvWriteBytes.toDouble),
        "cache_hits" -> (_.metrics.cacheHits.toDouble),
        "max_chain" -> (_.metrics.maxChainDepth.toDouble),
        "rounds" -> (_.rounds.toDouble),
      ) ++ (if (cs.forall(_.spark.isDefined) && cs.nonEmpty) Seq[(String, CallRec => Double)](
        "spark_jobs" -> (_.spark.get.jobs.toDouble),
        "spark_stages" -> (_.spark.get.stages.toDouble),
        "spark_shuffle_write_mb" -> (_.spark.get.shuffleWriteMb),
      ) else Nil)
      val (same, varies) = counters.map { case (k, g) => k -> cs.map(g) }.partition(_._2.distinct.size <= 1)
      say(s"  ${ps.head.calls(i).spec.algorithm}: exact [${same.map(_._1).mkString(", ")}]" +
        (if (varies.isEmpty) "" else
          s"; varies [${varies.map { case (k, v) => s"$k ${v.min}..${v.max}" }.mkString(", ")}]"))
    }
  }

  /** Returns true iff every call matched its oracle and every named metric
    * was measured.
    */
  def run(): Boolean = {
    workDir.mkdirs()
    say(s"workload ${wl.name}: seed $seed, seconds $seconds, trace ${if (trace) 1 else 0}")
    say(s"  graph ${wl.graph}")
    say(s"  calls ${wl.calls.map(c => s"${c.side}:${c.algorithm}").mkString(" ")}, seed ${Fixed.AlgSeed}")

    // Set-up: Spark session plus the materialised input, several times.
    val setups = mutable.ArrayBuffer.empty[(Double, Double, Double)]
    var input: Input = null
    (1 to setupRuns).foreach { _ =>
      if (spark != null) { spark.stop(); spark = null }
      val t0 = System.nanoTime()
      spark = session()
      val (in, genS, weightsS) = Inputs.build(spark, wl, seed)
      setups += (((System.nanoTime() - t0) / 1e9, genS, weightsS))
      input = in
    }
    val setupS = Stats.median(setups.map(_._1).toSeq)
    baseline = spark.sparkContext.getPersistentRDDs.keySet.toSet
    val n = GraphOps.vertices(input.edges).count()
    say(s"  master local[$cores], ${Fixed.SparkConf.map { case (k, v) => s"$k=$v" }.mkString(", ")}")
    say(s"  n $n, m ${input.m}")
    say(s"  setup_s per set-up: ${setups.map(s => f3(s._1)).mkString(", ")} (median ${f3(setupS)})")
    say(s"  MPC cutoff ${Fixed.cutoff(input.m)}")

    val o0 = System.nanoTime()
    val oracle = new Oracle(wl, input)
    oracle.prepare()
    val oracleS = (System.nanoTime() - o0) / 1e9
    say(f"  [${elapsed}%.0f s] oracles computed in ${f3(oracleS)} s, outside every timer")

    (1 to warmupPasses).foreach { i => passLine(s"warm-up $i (discarded)", pass(input, oracle, None, -i)) }

    if (!trace) endToEnd(input, oracle, setupS)
    else perLayer(input, oracle, setups.toSeq, oracleS)
  }

  /** Prints every metric this workload measured, then the JSON line with
    * the metrics `--metrics` names (all of them when it is absent). A
    * metric that does not apply to the workload is not measured; one that
    * is not a finite number counts as not measured. A named metric that was
    * not measured fails the run.
    */
  private def result(all: Seq[(String, Double, String)]): Boolean = {
    val measured = all.filter { case (_, v, _) => !v.isNaN && !v.isInfinite }
    val byName = measured.map(m => m._1 -> m).toMap
    val missing = only.toSeq.flatten.filterNot(byName.contains)
    measured.foreach { case (k, v, u) => say(f"  $k%-34s ${f3(v)} $u") }
    missing.foreach(k => say(s"  metric $k: not measured"))
    val correct = failed == 0 && missing.isEmpty
    say(s"  failed_frac ${failed.toDouble / attempted} ($failed of $attempted calls)")
    val ms = only.fold(measured)(_.flatMap(byName.get))
      .map { case (k, v, u) => s""""$k": {"value": ${java.lang.Double.toString(v)}, "unit": "$u"}""" }
    say(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}""")
    correct
  }

  private def endToEnd(input: Input, oracle: Oracle, setupS: Double): Boolean = {
    val ps = passes(input, oracle, seconds, minPasses)
    val good = ps.filter(_.ok)
    say(s"timed passes: ${ps.length} ($warmupPasses warm-up discarded, ${ps.length - good.length} with failures excluded)")
    if (good.isEmpty) return result(Nil)
    distribution("ampc_s", "s", good.map(_.seconds("ampc")))
    distribution("mpc_s", "s", good.map(_.seconds("mpc")))
    distribution("heap_peak_mb", "MB", good.map(_.heapPeakMb))
    repeatability(ps)
    result(Seq(
      ("setup_s", setupS, "s"),
      ("ampc_s", Stats.median(good.map(_.seconds("ampc"))), "s"),
      ("mpc_s", Stats.median(good.map(_.seconds("mpc"))), "s"),
      ("modeled_ampc_s", Stats.median(good.map(_.modeled("ampc"))), "s"),
      ("modeled_mpc_s", Stats.median(good.map(_.modeled("mpc"))), "s"),
      ("heap_peak_mb", good.map(_.heapPeakMb).max, "MB"),
    ))
  }

  private def perLayer(input: Input, oracle: Oracle, setups: Seq[(Double, Double, Double)],
                       oracleS: Double): Boolean = {
    val adjS = Stats.median(Seq.fill(3)(Inputs.adjacencyBuild(spark, input)))
    // Untraced and traced passes alternate in the order U T T U U T ..., so
    // a steady speed-up from pass to pass (the JIT still warming) cancels
    // out of their difference, the tracing overhead.
    val plain, traced = mutable.ArrayBuffer.empty[PassRec]
    def untracedPass(i: Int): Unit = {
      plain += pass(input, oracle, None, i)
      passLine(s"untraced pass ${i + 1}", plain.last)
    }
    def tracedPass(i: Int): Unit = {
      val listener = new CallListener
      spark.sparkContext.addSparkListener(listener)
      try traced += pass(input, oracle, Some(listener), 1000 + i)
      finally spark.sparkContext.removeSparkListener(listener)
      passLine(s"traced pass ${i + 1}", traced.last)
    }
    val t0 = System.nanoTime()
    while (traced.length < minPasses || (System.nanoTime() - t0) / 1e9 < seconds) {
      val i = traced.length
      if (i % 2 == 0) { untracedPass(i); tracedPass(i) } else { tracedPass(i); untracedPass(i) }
    }
    val ps = traced.filter(_.ok).toSeq
    say(s"passes: ${plain.length} untraced, ${traced.length} traced ($warmupPasses warm-up discarded)")
    repeatability((plain ++ traced).toSeq)
    if (ps.isEmpty || !plain.exists(_.ok)) return result(Nil)

    // Call-site breakdown of job time, from the median-time traced pass.
    val mid = ps.sortBy(p => p.seconds("ampc") + p.seconds("mpc")).apply(ps.length / 2)
    say("job seconds by call site (median traced pass):")
    mid.calls.foreach { c =>
      say(s"  ${c.spec.algorithm} (${f3(c.seconds)} s):")
      c.spark.get.bySite.toSeq.sortBy(-_._2).foreach { case (site, s) => say(s"    ${f3(s)}  $site") }
    }

    val out = mutable.ArrayBuffer.empty[(String, Double, String)]
    def med(xs: Seq[Double]) = Stats.median(xs)
    def add(k: String, unit: String)(f: PassRec => Double): Unit = out += ((k, med(ps.map(f)), unit))
    // A metric of a layer this workload does not use (weighting, the
    // cache, an algorithm it does not call) is left out, not reported as 0.
    out += (("graphs.gen_s", med(setups.map(_._2)), "s"))
    if (wl.weighted) out += (("graphs.weights_s", med(setups.map(_._3)), "s"))
    out += (("graphs.adjacency_build_s", adjS, "s"))

    val micro = Micro.run(GraphOps.collectEdges(input.edges), Fixed.AlgSeed, seed, cores)
    Seq("dht_get_ns", "dht_put_ns", "cache_get_ns", "metrics_record_ns").foreach { k =>
      Seq("t1", "tn").foreach(t => out += ((s"ampc.$k.$t", micro(s"ampc.$k.$t"), "ns")))
    }
    def amp(p: PassRec) = p.side("ampc").map(_.metrics)
    add("ampc.kv_queries", "count")(amp(_).map(_.kvQueries).sum.toDouble)
    add("ampc.kv_read_mb", "MB")(amp(_).map(_.kvReadBytes).sum / 1e6)
    add("ampc.kv_write_mb", "MB")(amp(_).map(_.kvWriteBytes).sum / 1e6)
    if (ps.exists(amp(_).exists(_.cacheHits > 0))) {
      add("ampc.cache_hits", "count")(amp(_).map(_.cacheHits).sum.toDouble)
      add("ampc.cache_hit_ratio", "ratio") { p =>
        val h = amp(p).map(_.cacheHits).sum.toDouble
        h / (h + amp(p).map(_.kvQueries).sum)
      }
    }
    add("ampc.max_chain", "count")(amp(_).map(_.maxChainDepth).foldLeft(0L)(math.max).toDouble)
    add("ampc.declared_shuffles", "count")(amp(_).map(_.shuffles).sum.toDouble)
    add("ampc.declared_shuffle_mb", "MB")(amp(_).map(_.shuffleBytes).sum / 1e6)

    val layer = Map("ampc" -> "core", "mpc" -> "mpc")
    wl.calls.foreach { c =>
      def call(p: PassRec) = p.calls.find(_.spec == c).get
      add(s"${layer(c.side)}.${c.algorithm}.run_s", "s")(call(_).seconds)
      if (c.algorithm == "AmpcMis" || c.algorithm == "AmpcMatching")
        add(s"core.${c.algorithm}.passes", "count")(call(_).rounds.toDouble)
    }
    out += (("core.TruncatedPrim.search_us", micro("core.TruncatedPrim.search_us"), "us"))
    out += (("core.TruncatedPrim.visits", micro("core.TruncatedPrim.visits"), "count"))
    out += (("core.PointerJump.root_ns", micro("core.PointerJump.root_ns"), "ns"))

    add("mpc.phases", "count")(_.side("mpc").map(_.rounds).sum.toDouble)
    add("mpc.declared_shuffles", "count")(_.side("mpc").map(_.metrics.shuffles).sum.toDouble)
    add("mpc.declared_shuffle_mb", "MB")(_.side("mpc").map(_.metrics.shuffleBytes).sum / 1e6)

    for (side <- Seq("ampc", "mpc")) {
      def use(p: PassRec) = p.side(side).flatMap(_.spark)
      add(s"spark.$side.jobs", "count")(use(_).map(_.jobs).sum.toDouble)
      add(s"spark.$side.stages", "count")(use(_).map(_.stages).sum.toDouble)
      add(s"spark.$side.shuffle_write_mb", "MB")(use(_).map(_.shuffleWriteMb).sum)
      add(s"spark.$side.shuffle_read_mb", "MB")(use(_).map(_.shuffleReadMb).sum)
      add(s"spark.$side.task_busy_s", "s")(use(_).map(_.taskBusyS).sum)
      add(s"spark.$side.busy_frac", "ratio")(p => use(p).map(_.taskBusyS).sum / (p.seconds(side) * cores))
      add(s"spark.$side.gc_s", "s")(use(_).map(_.gcS).sum)
      add(s"spark.$side.driver_s", "s")(use(_).map(_.driverS).sum)
      add(s"spark.$side.cached_mb_after", "MB")(_.side(side).map(_.cachedMbAfter).sum)
    }
    add("ref.verify_s", "s")(oracleS + _.calls.map(_.verifyS).sum)

    val good = plain.filter(_.ok).toSeq
    for (side <- Seq("ampc", "mpc")) {
      val (t, u) = (med(ps.map(_.seconds(side))), med(good.map(_.seconds(side))))
      say(s"  tracing overhead on ${side}_s: ${f3(t - u)} s (traced median ${f3(t)} s, untraced median ${f3(u)} s)")
    }
    result(out.toSeq)
  }
}
