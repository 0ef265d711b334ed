package repro.compressor

/** Linear-scaling quantizer (SZ-style, §III-B of the paper).
  *
  * The prediction error `actual - pred` is quantized to an integer code with
  * interval size `2*eb`, so the reconstructed value `pred + code*2*eb` is
  * always within `eb` of the actual value. Codes whose magnitude reaches
  * [[Quantizer.DefaultRadius]] escape to "unpredictable": the raw value is
  * stored verbatim (lossless for that point) — exactly SZ's out-of-range
  * handling.
  *
  * @param eb absolute error bound (must be > 0)
  */
final class Quantizer(val eb: Double) {
  require(eb > 0, "error bound must be positive")

  val interval: Double = 2.0 * eb

  /** Quantize one prediction: the code, or [[Quantizer.Escape]] when the
    * point must be stored verbatim. A non-escape code reconstructs through
    * [[reconstruct]] to within `eb` of `actual`; an escaped point
    * reconstructs to `actual` itself.
    */
  def code(pred: Double, actual: Double): Int = {
    val diff = actual - pred
    val q = math.rint(diff / interval)
    if (q.isNaN || math.abs(q) >= Quantizer.DefaultRadius) Quantizer.Escape
    else {
      val c = q.toInt
      // Floating-point cancellation can nudge |recon-actual| past eb for
      // values many orders of magnitude above eb; escape those too. The
      // 1e-10 slack tolerates exact half-interval rounding wobble.
      if (math.abs(reconstruct(pred, c) - actual) > eb * (1 + 1e-10)) Quantizer.Escape
      else c
    }
  }

  /** Reconstruct from a (non-escape) code. */
  def reconstruct(pred: Double, code: Int): Double = pred + code * interval
}

object Quantizer {
  /** SZ's default escape radius (65536 quantization bins). */
  val DefaultRadius: Int = 32768

  /** Sentinel code marking an unpredictable (verbatim-stored) point. */
  val Escape: Int = Int.MinValue
}
