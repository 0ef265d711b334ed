package repro.compressor

/** Zero-run run-length encoding over quantization codes, as a bit count.
  *
  * The paper (§III-C2) models the optional lossless stage after Huffman as
  * RLE over the dominant zero codes: the predictor decorrelates the data, so
  * the only exploitable redundancy left in the Huffman stream is runs of the
  * 1-bit zero code. [[bitsAfterZeroRunRle]] measures the size such a stage
  * would give; the compressor itself runs Deflate ([[Lossless]]).
  */
object Rle {

  /** Bits used to store one zero-run length (the paper's C1). */
  val RunLengthBits: Int = 8

  /** Maximum run collapsed into one run token (limited by RunLengthBits). */
  val MaxRun: Int = (1 << RunLengthBits) - 1

  /** Exact size in bits of the Huffman stream after replacing each maximal
    * zero run by a C1-bit run token, with non-zero symbols keeping their
    * Huffman code lengths. This is the measured counterpart of Eq. (4).
    */
  def bitsAfterZeroRunRle(codes: Array[Int], huffLengths: Map[Int, Int]): Long = {
    val hist = Huffman.histogram(codes)
    val lenOf = new Array[Int](hist.counts.length)
    hist.presentSlots.foreach { k => val s = hist.symbol(k); if (s != 0) lenOf(k) = huffLengths(s) }
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
