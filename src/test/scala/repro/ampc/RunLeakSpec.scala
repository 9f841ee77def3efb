package repro.ampc

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestGraphs}
import repro.core.{AmpcConnectivity, AmpcMatching, AmpcMis, AmpcMsf, AmpcTwoCycle, KktMsf}
import repro.graphs.GraphGen

/** Every AMPC entry point ends its run: no ledger or store stays
  * registered, and no cached data stays behind once the caller unpersists
  * the handle the result returns.
  */
class RunLeakSpec extends SparkSpec {

  private def graph: DataFrame = TestGraphs.toDf(spark, TestGraphs.randomEdges(40, 100, 11))

  private def weighted: DataFrame =
    TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(TestGraphs.randomEdges(40, 100, 11), 11))

  /** Each entry point on a small graph, unpersisting what it returns. */
  private val entryPoints: Seq[(String, () => Unit)] = Seq(
    "AmpcMis" -> (() => AmpcMis.run(spark, graph, 11): Unit),
    "AmpcMatching" -> (() => AmpcMatching.run(spark, graph, 11): Unit),
    "AmpcMsf" -> (() => AmpcMsf.run(spark, weighted, 11, searchBudget = 4).mapping.unpersist(): Unit),
    "AmpcConnectivity" -> (() => AmpcConnectivity.run(spark, graph, 11, searchBudget = 4).labels.unpersist(): Unit),
    "AmpcTwoCycle" -> (() => AmpcTwoCycle.run(spark, GraphGen.twoCycles(spark, 200), 11, sampleInv = 8): Unit),
    "KktMsf" -> (() => KktMsf.run(spark, weighted, 11, searchBudget = 4, localThreshold = 0): Unit),
  )

  for ((name, run) <- entryPoints) {
    test(s"$name closes its ledger and every store") {
      val before = Metrics.liveRuns
      run()
      assert(Metrics.liveRuns == before)
    }

    test(s"$name leaves nothing cached") {
      def persisted = spark.sparkContext.getPersistentRDDs.keySet.toSet
      val before = persisted
      run()
      assert(persisted == before)
    }
  }
}
