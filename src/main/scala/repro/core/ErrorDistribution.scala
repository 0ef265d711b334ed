package repro.core

/** Compression-error distribution model (§III-E1).
  *
  * Non-central quantization bins reconstruct to the bin center, leaving a
  * near-uniform residual in [−e, e] (variance e²/3, Eq. 10). At high error
  * bounds the central bin dominates and its points keep their *prediction*
  * error as the compression error, so the mixture Eq. 11 applies:
  * σ(E)² = (1−p0)·e²/3 + p0·Var(central-bin errors).
  */
object ErrorDistribution {

  /** Eq. 10: variance of a uniform error distribution in [−e, e]. */
  def uniformVariance(e: Double): Double = e * e / 3.0

  /** The sample's central bin at error bound `e`, from one pass over the
    * errors: `zeros` counts the errors [[Histogram.fromErrors]] quantizes to
    * code 0, and `variance` is the variance of the errors with |err| ≤ e —
    * the σ(B[0]) term of Eq. 11, computable from the one-time sample
    * (uniform when no error falls inside).
    */
  final case class CentralBin(zeros: Long, variance: Double)

  def centralBin(errors: Array[Double], e: Double): CentralBin = {
    require(e > 0, "error bound must be positive")
    val interval = 2 * e
    var zeros = 0L
    var s = 0.0
    var s2 = 0.0
    var n = 0
    var i = 0
    while (i < errors.length) {
      val x = errors(i)
      if (Histogram.code(x, interval) == 0) zeros += 1
      if (math.abs(x) <= e) { s += x; s2 += x * x; n += 1 }
      i += 1
    }
    val variance =
      if (n == 0) uniformVariance(e)
      else {
        val mu = s / n
        math.max(0.0, s2 / n - mu * mu)
      }
    CentralBin(zeros, variance)
  }

  /** Eq. 11: mixed error-distribution variance. */
  def mixedVariance(e: Double, p0: Double, centralVar: Double): Double =
    (1 - p0) * uniformVariance(e) + p0 * centralVar
}
