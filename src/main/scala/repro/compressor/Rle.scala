package repro.compressor

/** Zero-run run-length encoding over quantization codes, as a bit count.
  *
  * The paper (§III-C2) models the optional lossless stage after Huffman as
  * RLE over the dominant zero codes. Neither the compressor, which runs
  * Deflate ([[Lossless]]), nor the model, which uses the entropy floor
  * ([[repro.core.EncoderModel.entropyBitRate]]), calls this;
  * [[bitsAfterZeroRunRle]] measures the size such a stage would give, and
  * stays as a stage the benchmark replays.
  */
object Rle {

  /** Bits used to store one zero-run length. */
  val RunLengthBits: Int = 8

  /** Maximum run collapsed into one run token (limited by RunLengthBits). */
  val MaxRun: Int = (1 << RunLengthBits) - 1

  /** Exact size in bits of the Huffman stream after replacing each maximal
    * zero run by a [[RunLengthBits]]-bit run token, with non-zero symbols
    * keeping their Huffman code lengths.
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
