package repro.perf

/** Order statistics and name rules behind every figure the benchmark prints. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** (Q1, Q2, Q3) by the "exclusive" method, the default of Python's
    * `statistics.quantiles(xs, n=4)`, so spreads computed here and by a
    * script reading the printed values agree.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.length >= 2, "quartiles need at least two values")
    val s = xs.sorted.toIndexedSeq
    val ld = s.length
    val m = ld + 1
    def q(i: Int): Double = {
      val j = math.max(1, math.min(ld - 1, i * m / 4))
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4
    }
    (q(1), q(2), q(3))
  }

  /** Linear-interpolation percentile, `p` in [0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty && p >= 0 && p <= 100, "percentile needs values and p in [0, 100]")
    val s = xs.sorted
    val rank = p / 100 * (s.length - 1)
    val lo = math.floor(rank).toInt
    val hi = math.ceil(rank).toInt
    s(lo) + (s(hi) - s(lo)) * (rank - lo)
  }

  /** Percentiles a tail may be reported at, in tenths of a percent. */
  private val TailCandidatesTenths = Seq(500, 900, 990, 999)

  /** Samples lying beyond the `p`-th percentile of `n` samples (exact integer
    * arithmetic, so 10 000 samples do have 10 beyond p99.9).
    */
  def samplesBeyond(n: Int, pTenths: Int): Long = n.toLong * (1000 - pTenths) / 1000

  /** The highest reportable percentile of `n` samples: the largest candidate
    * with at least ten samples beyond it, or None when even the median has
    * fewer.
    */
  def tailPercentile(n: Int): Option[Double] =
    TailCandidatesTenths.filter(samplesBeyond(n, _) >= 10).lastOption.map(_ / 10.0)

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), "geometric mean needs positive values")
    math.exp(xs.map(math.log).sum / xs.length)
  }

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of an empty sample")
    xs.sum / xs.length
  }

  /** Metric names: a letter or digit, then up to 63 of `[A-Za-z0-9_.-]`. */
  def validName(s: String): Boolean = s.matches("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

  /** Metric units: up to 16 of `[A-Za-z0-9_/%.-]`. */
  def validUnit(s: String): Boolean = s.matches("[A-Za-z0-9_/%.-]{1,16}")
}
