package repro.core

import org.apache.spark.sql.{Dataset, Encoder}

/** The truncation/retry pass loop AMPC MIS and MM share (the O(1/ε)-step
  * schedule of [19]).
  *
  * Each pass runs `query` from every pending vertex over the persisted
  * adjacency, in one `mapPartitions … collect()`. A query returns None when
  * it exceeds its DHT query budget; those vertices are retried in the next
  * pass with the budget multiplied by `budgetGrowth`, saturating at
  * `Long.MaxValue`. With an unlimited budget one pass suffices.
  */
private[core] object QueryPasses {

  /** Returns the resolved (vertex, answer) pairs and the number of passes. */
  def run[A, R](pending: Dataset[(Long, A)], queryBudget: Long, budgetGrowth: Long)(
      query: (Long, A, Long) => Option[R],
  )(implicit enc: Encoder[(Long, Option[R])]): (Seq[(Long, R)], Int) = {
    val out = pending
      .mapPartitions(it => it.map { case (v, a) => (v, query(v, a, queryBudget)) })
      .collect()
    val resolved = out.toSeq.collect { case (v, Some(r)) => (v, r) }
    val unresolved = out.collect { case (v, None) => v }.toSet
    if (unresolved.isEmpty) (resolved, 1)
    else {
      require(budgetGrowth > 1, s"truncated queries need budgetGrowth > 1, got $budgetGrowth")
      val budget =
        if (queryBudget >= Long.MaxValue / budgetGrowth) Long.MaxValue
        else queryBudget * budgetGrowth
      val (more, passes) = run(pending.filter(p => unresolved(p._1)), budget, budgetGrowth)(query)
      (resolved ++ more, passes + 1)
    }
  }
}
