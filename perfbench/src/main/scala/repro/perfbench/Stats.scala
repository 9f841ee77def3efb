package repro.perfbench

object Stats {

  /** Linear-interpolated quantile `q` in [0, 1] of `xs` (non-empty). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** The highest whole percentile with at least ten samples above it, or
    * None when there are too few samples for any percentile at or above
    * the median.
    */
  def tailPercentile(n: Int): Option[Int] = {
    val p = math.floor(100.0 * (n - 10) / n).toInt
    if (p >= 50) Some(p) else None
  }
}
