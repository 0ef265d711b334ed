package repro.core

import repro.compressor.Huffman

/** Analytical encoder-efficiency model (§III-C): Huffman bit-rate from the
  * quantization-code histogram (Eq. 1) and the entropy floor that models
  * the optional lossless stage. The error-bound ↔ bit-rate closed forms
  * (Eqs. 2–3) are [[RQModel.errorBoundForBitRate]].
  */
object EncoderModel {

  private[core] val Log2 = math.log(2.0)
  private def log2(x: Double): Double = math.log(x) / Log2

  /** Eq. 1: B = Σ P(s)·L(s) with L(s) ≈ −log₂P(s), clamped below at 1 bit
    * (no symbol can code in less than one bit).
    */
  def huffmanBitRate(hist: Huffman.Histogram): Double =
    bitRate(hist)(p => math.max(1.0, -log2(p)))

  /** Σ P(s)·len(P(s)) over the present symbols, in ascending slot order, plus
    * the Miller–Madow correction (K−1)/(2·m·ln 2) for K distinct symbols in
    * m points: a histogram from a small sample never observes the tail codes,
    * so its plug-in entropy is biased low.
    */
  private def bitRate(hist: Huffman.Histogram)(len: Double => Double): Double = {
    var b = 0.0
    var distinct = 0
    var k = 0
    while (k < hist.counts.length) {
      val n = hist.counts(k)
      if (n > 0) { val p = n.toDouble / hist.total; b += p * len(p); distinct += 1 }
      k += 1
    }
    if (distinct > 1)
      b += (distinct - 1) / (2.0 * hist.total * Log2)
    b
  }

  /** Unclamped Shannon entropy of the code histogram (bits/point), with the
    * same Miller–Madow small-sample correction. This is the floor any
    * lossless stage can approach: Huffman alone loses the sub-1-bit entropy
    * of the dominant symbol to integer code lengths, and the dictionary/RLE
    * stage recovers it through runs — the paper's Fig. 3 observation that
    * "the optional lossless encoder only complements Huffman after it
    * reaches ~1 bit per symbol".
    *
    * It is the model's Huffman + lossless bit-rate, in place of the paper's
    * zero-run RLE closed form (Eqs. 4–8); EXPERIMENTS.md gives both forms'
    * Table II accuracy. It never exceeds [[huffmanBitRate]]: each slot's
    * −log₂P ≤ max(1, −log₂P), summed in the same order with the same
    * correction.
    */
  def entropyBitRate(hist: Huffman.Histogram): Double =
    bitRate(hist)(p => -log2(p))
}
