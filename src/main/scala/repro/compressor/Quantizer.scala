package repro.compressor

/** Linear-scaling quantizer (SZ-style, §III-B of the paper).
  *
  * The prediction error `actual - pred` is quantized to an integer code with
  * interval size `2*eb`, so the reconstructed value `pred + code*2*eb` is
  * always within `eb` of the actual value. Codes whose magnitude reaches
  * [[Quantizer.Radius]] escape to "unpredictable": the raw value is
  * stored verbatim (lossless for that point) — exactly SZ's out-of-range
  * handling.
  *
  * @param eb absolute error bound (must be > 0)
  */
final class Quantizer(val eb: Double) {
  require(eb > 0, "error bound must be positive")

  val interval: Double = 2.0 * eb

  /** `1 / interval`, when it and `interval` are both normal doubles, so that
    * `diff · inverse` is within 3 ulp of `diff / interval`; else NaN, and
    * [[quantize]] divides.
    */
  private[this] val inverse: Double = {
    val inv = 1.0 / interval
    if (isNormal(interval) && isNormal(inv)) inv else Double.NaN
  }

  private def isNormal(x: Double): Boolean = x >= java.lang.Double.MIN_NORMAL && x <= Double.MaxValue

  /** Quantize one prediction: the code as an integral double (`+0.0` for
    * code 0), or NaN when the point must be stored verbatim (an escape).
    * A non-NaN `q` reconstructs to `pred + q * interval`, bit for bit
    * `reconstruct(pred, q.toInt)`, within `eb` of `actual`: floating-point
    * cancellation can nudge |recon − actual| past eb for values many
    * orders of magnitude above eb, so those escape too (the 1e-10 slack
    * tolerates exact half-interval rounding wobble).
    *
    * The code is `rint(diff / interval)`, taken as `rint(diff · (1/interval))`
    * without the division: for |q| < 2^16 the product lies within 3 ulp
    * (< 2.2e-11) of the quotient, so the two round alike unless the product
    * is within 1e-9 of a half-integer; then, and when `1/interval` or
    * `interval` is not a normal double, the division decides. Past 2^16
    * both escape.
    */
  def quantize(pred: Double, actual: Double): Double = {
    val diff = actual - pred
    val p = diff * inverse
    var q = math.rint(p)
    if (!(math.abs(p - q) < 0.5 - 1e-9)) q = math.rint(diff / interval)
    if (!(math.abs(q) < Quantizer.Radius) || math.abs(pred + q * interval - actual) > eb * (1 + 1e-10)) Double.NaN
    else q + 0.0
  }

  /** Reconstruct from a (non-escape) code. */
  def reconstruct(pred: Double, code: Int): Double = pred + code * interval
}

object Quantizer {
  /** SZ's escape radius (65536 quantization bins). */
  val Radius: Int = 32768

  /** Sentinel code marking an unpredictable (verbatim-stored) point. */
  val Escape: Int = Int.MinValue
}
