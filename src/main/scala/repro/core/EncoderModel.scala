package repro.core

import repro.compressor.Huffman

/** Analytical encoder-efficiency model (§III-C): Huffman bit-rate from the
  * quantization-code histogram (Eq. 1), the error-bound ↔ bit-rate closed
  * forms (Eqs. 2–3), and the zero-run RLE model of the optional lossless
  * stage (Eqs. 4–8).
  */
object EncoderModel {

  /** The paper's C1 — bits spent to represent one zero run in the lossless
    * stage, matching the measured RLE bit count ([[repro.compressor.Rle.RunLengthBits]]).
    */
  val C1: Double = repro.compressor.Rle.RunLengthBits.toDouble

  private[core] val Log2 = math.log(2.0)
  private def log2(x: Double): Double = math.log(x) / Log2

  /** Eq. 1: B = Σ P(s)·L(s) with L(s) ≈ −log₂P(s), clamped below at 1 bit
    * (no symbol can code in less than one bit). When the histogram comes from
    * a small sample, the plug-in entropy is biased low (tail codes are never
    * observed); `biasCorrect` adds the Miller–Madow correction
    * (K−1)/(2·m·ln 2).
    */
  def huffmanBitRate(hist: Huffman.Histogram, biasCorrect: Boolean = true): Double =
    bitRate(hist, biasCorrect)(p => math.max(1.0, -log2(p)))

  /** Σ P(s)·len(P(s)) over the present symbols, in ascending slot order, plus
    * the Miller–Madow correction when `biasCorrect`.
    */
  private def bitRate(hist: Huffman.Histogram, biasCorrect: Boolean)(len: Double => Double): Double = {
    var b = 0.0
    var distinct = 0
    var k = 0
    while (k < hist.counts.length) {
      val n = hist.counts(k)
      if (n > 0) { val p = n.toDouble / hist.total; b += p * len(p); distinct += 1 }
      k += 1
    }
    if (biasCorrect && distinct > 1)
      b += (distinct - 1) / (2.0 * hist.total * Log2)
    b
  }

  /** Eq. 4: compression ratio of run-length encoding over the Huffman stream.
    *
    * The paper models runs of the zero code because a good predictor makes
    * zero dominant; for data where the predictor leaves a different dominant
    * code (e.g. a constant-increment ramp), the same derivation applies to
    * that code, so we key on the dominant-code share.
    *
    * @param p0 share of the dominant quantization code
    * @param huffBitRate Huffman bits/point (Eq. 1) — determines P0, the share
    *                    of the Huffman footprint the dominant 1-bit code takes
    */
  def rleRatio(p0: Double, huffBitRate: Double): Double = {
    if (p0 <= 0 || huffBitRate <= 0) return 1.0
    val l0 = 1.0 // the dominant code's Huffman length once it dominates
    val P0 = math.min(1.0, p0 * l0 / huffBitRate)
    val e0 = C1 * (1 - p0) / l0 // Eq. 5 with n0 = 1/(1-p0) (Eq. 7)
    val r = 1.0 / (e0 * P0 + (1 - P0)) // Eq. 6
    math.max(1.0, r) // the lossless stage is only kept when it helps
  }

  /** Unclamped Shannon entropy of the code histogram (bits/point), with the
    * same Miller–Madow small-sample correction. This is the floor any
    * lossless stage can approach: Huffman alone loses the sub-1-bit entropy
    * of the dominant symbol to integer code lengths, and the dictionary/RLE
    * stage recovers it through runs — the paper's Fig. 3 observation that
    * "the optional lossless encoder only complements Huffman after it
    * reaches ~1 bit per symbol".
    *
    * It is the model's Huffman + lossless bit-rate, and it never exceeds
    * [[huffmanBitRate]]: each slot's −log₂P ≤ max(1, −log₂P), summed in the
    * same order with the same correction.
    */
  def entropyBitRate(hist: Huffman.Histogram, biasCorrect: Boolean = true): Double =
    bitRate(hist, biasCorrect)(p => -log2(p))

  /** Eq. 8: the zero fraction needed for a target RLE ratio (used when
    * inverting a target bit-rate in the RLE-dominated regime), from Eq. 4
    * with P0 ≈ p0 and l0 = 1:
    *
    *   1/R = (1 − p0)(C1·p0 + 1)  ⇒  C1·p0² − (C1−1)·p0 + (1/R − 1) = 0
    *   ⇒  p0 = ((C1−1) + √((C1−1)² + 4·C1·(1 − 1/R))) / (2·C1).
    *
    * (The radical as printed in the paper has no real solution for C1 in
    * bits; this is the algebraically consistent root of their Eq. 4.)
    */
  def p0ForRleRatio(target: Double): Double = {
    require(target >= 1.0, "RLE ratio must be ≥ 1")
    val a = C1 - 1
    val disc = a * a + 4 * C1 * (1.0 - 1.0 / target)
    math.min(1.0, (a + math.sqrt(disc)) / (2 * C1))
  }
}
