package repro.core

import repro.compressor.{Huffman, Quantizer}

/** Quantization of sampled prediction errors into the code histogram
  * (§III-D), the interface between the predictor module (sampled prediction
  * errors) and the encoder module (bit-rate estimation). The histogram is
  * the compressor's own [[Huffman.Histogram]].
  */
object Histogram {

  /** Quantize sampled prediction errors at error bound `eb` (linear-scaling
    * quantization, same escape radius as the real quantizer), move the share
    * `driftRate` of the zero codes to ±1 ([[Feedback.applyDrift]], the Eq. 9
    * correction), and count the codes.
    */
  def fromErrors(errors: Array[Double], eb: Double, driftRate: Double): Huffman.Histogram = {
    require(eb > 0, "error bound must be positive")
    require(errors.nonEmpty, "empty histogram")
    val codes = new Array[Int](errors.length)
    val interval = 2 * eb
    var i = 0
    while (i < errors.length) { codes(i) = code(errors(i), interval); i += 1 }
    Huffman.histogram(Feedback.applyDrift(codes, driftRate))
  }

  /** The code of one sampled error under bins of width `interval` (2·eb). */
  private[core] def code(error: Double, interval: Double): Int = {
    val c = math.rint(error / interval)
    if (c.isNaN || math.abs(c) >= Quantizer.DefaultRadius) Quantizer.Escape else c.toInt
  }
}
