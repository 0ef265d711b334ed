package repro.core

import repro.compressor.{Huffman, Quantizer}

/** Quantization of sampled prediction errors into the code histogram
  * (§III-D), the interface between the predictor module (sampled prediction
  * errors) and the encoder module (bit-rate estimation). The histogram is
  * the compressor's own [[Huffman.Histogram]].
  */
object Histogram {

  /** Quantize sampled prediction errors at error bound `eb` (linear-scaling
    * quantization, same escape radius as the real quantizer), count the
    * codes, and move the share `driftRate` of the zero codes to ±1
    * ([[Feedback.applyDrift]], the Eq. 9 correction).
    *
    * Two passes over the errors and no array of codes: the first finds the
    * smallest and largest error, whose codes bound every non-escape code
    * (the code is monotone in the error), and the second counts the codes
    * into the histogram's slots over that range.
    */
  def fromErrors(errors: Array[Double], eb: Double, driftRate: Double): Huffman.Histogram = {
    require(eb > 0, "error bound must be positive")
    require(errors.nonEmpty, "empty histogram")
    val interval = 2 * eb
    var min = Double.PositiveInfinity
    var max = Double.NegativeInfinity
    var i = 0
    while (i < errors.length) {
      val x = errors(i)
      if (x < min) min = x
      if (x > max) max = x
      i += 1
    }
    // the code of an error, clamped into the non-escape codes
    def bound(x: Double): Int =
      math.min(math.max(math.rint(x / interval), 1.0 - Quantizer.Radius), Quantizer.Radius - 1.0).toInt
    val lo = if (min > max) 0 else bound(min)
    val hi = if (min > max) -1 else bound(max)
    val esc = hi - lo + 1
    val counts = new Array[Int](esc + 1)
    i = 0
    while (i < errors.length) {
      val c = code(errors(i), interval)
      counts(if (c == Quantizer.Escape) esc else c - lo) += 1
      i += 1
    }
    Feedback.applyDrift(new Huffman.Histogram(lo, counts, errors.length), driftRate)
  }

  /** The code of one sampled error under bins of width `interval` (2·eb). */
  private[core] def code(error: Double, interval: Double): Int = {
    val c = math.rint(error / interval)
    if (c.isNaN || math.abs(c) >= Quantizer.Radius) Quantizer.Escape else c.toInt
  }
}
