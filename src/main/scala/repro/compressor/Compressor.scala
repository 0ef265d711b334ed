package repro.compressor

import repro.core.Field

/** Measured result of one compression run.
  *
  * Sizes are split so the model's per-stage estimates (Huffman vs lossless)
  * can be compared against the matching measured quantity, as in Table II.
  *
  * @param predictor      predictor name
  * @param eb             absolute error bound used
  * @param n              number of data points
  * @param huffPayloadBits exact Huffman payload bits over the quantization codes
  * @param codebookBytes  serialized Huffman codebook size
  * @param sideBytes      predictor side channel (anchors / regression coeffs)
  * @param unpredCount    escape-coded points (stored verbatim, 8 B each)
  * @param huffLLBytes    Deflate size of the Huffman payload alone (the
  *                       codebook is counted in `codebookBytes`)
  * @param p0             fraction of zero quantization codes
  * @param recon          reconstructed field (decompressor output)
  */
final case class CompressionResult(
    predictor: String,
    eb: Double,
    n: Int,
    huffPayloadBits: Long,
    codebookBytes: Int,
    sideBytes: Int,
    unpredCount: Int,
    huffLLBytes: Long,
    p0: Double,
    recon: Field,
) {
  private def overheadBytes: Long = codebookBytes.toLong + sideBytes + unpredCount.toLong * 8

  /** Compressed size with Huffman only (bytes). */
  def huffBytes: Long = (huffPayloadBits + 7) / 8 + overheadBytes

  /** Compressed size with Huffman + lossless stage (bytes). */
  def huffPlusLLBytes: Long = huffLLBytes + overheadBytes

  /** Bit-rate (bits/point) of the Huffman payload alone — the quantity the
    * Huffman model (Eq. 1) estimates. */
  def huffBitRate: Double = huffPayloadBits.toDouble / n

  /** Bit-rate including lossless stage payload (no fixed overheads). */
  def huffLLBitRate: Double = huffLLBytes * 8.0 / n

  /** End-to-end compression ratio vs 8-byte doubles, with lossless stage. */
  def ratioHuffLL: Double = n * 8.0 / huffPlusLLBytes
}

/** End-to-end prediction-based error-bounded lossy compressor: the substrate
  * the ratio-quality model (repro.core) is validated against. Mirrors SZ3's
  * pipeline: predictor → linear-scaling quantizer → Huffman → optional
  * lossless (Deflate), plus a full decompressor for roundtrip verification.
  */
object Compressor {

  /** Compress and measure. The reconstruction in the result is byte-identical
    * to what [[decompressBlob]] yields from [[compressToBlob]].
    */
  def compress(field: Field, ebAbs: Double, predictor: Predictor): CompressionResult = {
    val quant = new Quantizer(ebAbs)
    val out = predictor.compress(field, quant)
    // one histogram feeds the code lengths, the payload and p0
    val code = Huffman.Code.of(Huffman.histogram(out.codes))
    // the lossless stage sees the Huffman *payload*; the codebook is fixed
    // metadata accounted separately (as the model does)
    val ll = Lossless.compress(code.payload(out.codes))
    CompressionResult(
      predictor = predictor.name,
      eb = ebAbs,
      n = field.size,
      huffPayloadBits = code.payloadBits,
      codebookBytes = Huffman.codebookBytes(code.distinct),
      sideBytes = out.sideBytes,
      unpredCount = out.unpredictable.length,
      huffLLBytes = ll.length.toLong,
      p0 = code.hist.count(0).toDouble / math.max(1, out.codes.length),
      recon = out.recon,
    )
  }

  /** Serialize a full self-describing compressed blob (used to prove the
    * pipeline actually roundtrips; size accounting in tests checks it against
    * [[CompressionResult.huffBytes]]).
    *
    * Layout: [ndim][dims...][eb][predictorId][unpredCount][unpred...][sideLen][side][huffBlob]
    */
  def compressToBlob(field: Field, ebAbs: Double, predictor: Predictor): Array[Byte] = {
    val quant = new Quantizer(ebAbs)
    val out = predictor.compress(field, quant)
    val huff = Huffman.encode(out.codes)
    val bb = java.nio.ByteBuffer.allocate(
      4 + 4 * field.ndim + 8 + 4 + 4 + 8 * out.unpredictable.length + 4 + out.side.length + huff.length)
    bb.putInt(field.ndim)
    field.dims.foreach(bb.putInt)
    bb.putDouble(ebAbs)
    bb.putInt(Predictor.idOf(predictor))
    bb.putInt(out.unpredictable.length)
    out.unpredictable.foreach(bb.putDouble)
    bb.putInt(out.side.length)
    bb.put(out.side)
    bb.put(huff)
    bb.array()
  }

  /** Decompress a blob produced by [[compressToBlob]]. A header that is
    * truncated or carries an impossible count (ndim < 1, a dim < 1, more than
    * `Int.MaxValue` points, an unknown predictor id, more unpredictable
    * values or side bytes than the blob holds) raises
    * `IllegalArgumentException` before anything is allocated from it.
    */
  def decompressBlob(blob: Array[Byte]): Field = {
    def check(ok: Boolean, what: => String): Unit =
      if (!ok) throw new IllegalArgumentException(s"corrupt blob header: $what")
    val bb = java.nio.ByteBuffer.wrap(blob)
    check(bb.remaining >= 4, "no ndim")
    val ndim = bb.getInt
    check(ndim >= 1 && ndim * 4L + 12 <= bb.remaining, s"ndim $ndim does not fit in ${bb.remaining} bytes")
    val dims = Array.fill(ndim)(bb.getInt)
    check(dims.forall(_ >= 1) && dims.map(_.toLong).product <= Int.MaxValue,
      s"dims ${dims.mkString("x")} not positive or over Int.MaxValue points")
    val eb = bb.getDouble
    val id = bb.getInt
    check(id >= 0 && id < Predictor.all.length, s"unknown predictor id $id")
    val predictor = Predictor.byId(id)
    check(bb.remaining >= 4, "no unpredictable count")
    val nUnpred = bb.getInt
    check(nUnpred >= 0 && nUnpred <= bb.remaining / 8, s"$nUnpred unpredictable values do not fit in ${bb.remaining} bytes")
    val unpred = Array.fill(nUnpred)(bb.getDouble)
    check(bb.remaining >= 4, "no side-channel length")
    val sideLen = bb.getInt
    check(sideLen >= 0 && sideLen <= bb.remaining, s"$sideLen side bytes do not fit in ${bb.remaining} bytes")
    val side = new Array[Byte](sideLen)
    bb.get(side)
    val huff = new Array[Byte](blob.length - bb.position())
    bb.get(huff)
    val codes = Huffman.decode(huff)
    predictor.decompress(dims, new Quantizer(eb), codes, unpred, side)
  }

  /** Verify the error-bound invariant; returns the max abs error. Equal
    * values count as 0, so ±∞ and NaN reconstructed as themselves (escapes
    * store them verbatim) pass; a NaN on one side only gives +∞.
    */
  def maxAbsError(a: Field, b: Field): Double = {
    require(a.size == b.size, s"size mismatch: ${a.size} vs ${b.size}")
    var m = 0.0
    var i = 0
    while (i < a.size) {
      val d = math.abs(a.data(i) - b.data(i))
      if (d > m) m = d
      // d is NaN when either side is NaN or both are the same infinity
      else if (d.isNaN && java.lang.Double.compare(a.data(i), b.data(i)) != 0) m = Double.PositiveInfinity
      i += 1
    }
    m
  }
}
