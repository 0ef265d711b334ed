package repro.compressor

import scala.collection.mutable.ArrayBuffer

/** Zero-run run-length encoding over quantization codes.
  *
  * The paper (§III-C2) models the optional lossless stage after Huffman as
  * RLE over the dominant zero codes: the predictor decorrelates the data, so
  * the only exploitable redundancy left in the Huffman stream is runs of the
  * 1-bit zero code. This object provides (a) a real token-level codec used in
  * tests and (b) the exact post-RLE bit count used as the measured "Huffman +
  * RLE" size.
  */
object Rle {

  /** Bits used to store one zero-run length (the paper's C1). */
  val RunLengthBits: Int = 8

  /** Maximum run collapsed into one token (limited by RunLengthBits). */
  val MaxRun: Int = (1 << RunLengthBits) - 1

  /** Token stream: zero runs become (RunMarker, length); other codes pass
    * through. RunMarker must not collide with quantization codes, which are
    * bounded by the quantizer radius.
    */
  val RunMarker: Int = Int.MaxValue

  def encodeTokens(codes: Array[Int]): Array[Int] = {
    val out = new ArrayBuffer[Int](codes.length)
    var i = 0
    while (i < codes.length) {
      if (codes(i) == 0) {
        var run = 0
        while (i < codes.length && codes(i) == 0 && run < MaxRun) { run += 1; i += 1 }
        out += RunMarker += run
      } else {
        out += codes(i)
        i += 1
      }
    }
    out.toArray
  }

  def decodeTokens(tokens: Array[Int]): Array[Int] = {
    val out = new ArrayBuffer[Int](tokens.length)
    var i = 0
    while (i < tokens.length) {
      if (tokens(i) == RunMarker) {
        val run = tokens(i + 1)
        var j = 0
        while (j < run) { out += 0; j += 1 }
        i += 2
      } else {
        out += tokens(i)
        i += 1
      }
    }
    out.toArray
  }

  /** Exact size in bits of the Huffman stream after replacing each maximal
    * zero run by a C1-bit run token, with non-zero symbols keeping their
    * Huffman code lengths. This is the measured counterpart of Eq. (4).
    */
  def bitsAfterZeroRunRle(codes: Array[Int], huffLengths: Map[Int, Int]): Long = {
    val hist = Huffman.histogram(codes)
    val lenOf = new Array[Int](hist.counts.length)
    hist.presentSlots.foreach { k => val s = hist.symbol(k); if (s != 0) lenOf(k) = huffLengths(s) }
    bitsAfterZeroRunRle(codes, hist, lenOf)
  }

  /** [[bitsAfterZeroRunRle]] with slot-indexed code lengths over `hist`,
    * which must hold every non-zero code.
    */
  private[compressor] def bitsAfterZeroRunRle(codes: Array[Int], hist: Huffman.Histogram, lenOf: Array[Int]): Long = {
    var bits = 0L
    var i = 0
    while (i < codes.length) {
      if (codes(i) == 0) {
        var run = 0
        while (i < codes.length && codes(i) == 0 && run < MaxRun) { run += 1; i += 1 }
        bits += RunLengthBits
      } else {
        bits += lenOf(hist.slot(codes(i)))
        i += 1
      }
    }
    bits
  }
}
