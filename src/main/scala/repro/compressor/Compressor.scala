package repro.compressor

import repro.core.Field

/** Result of one compression run: the compressed blob and the sizes of its
  * sections.
  *
  * Sizes are split so the model's per-stage estimates (Huffman vs lossless)
  * can be compared against the matching measured quantity, as in Table II.
  * Each is the size of a section of `blob` ([[Compressor]] gives the layout).
  *
  * @param predictor      predictor name
  * @param eb             absolute error bound used
  * @param n              number of data points
  * @param huffPayloadBits bits of the blob's Huffman payload
  * @param codebookBytes  bytes of the blob's Huffman codebook and stream header
  * @param sideBytes      bytes of the blob's predictor side channel
  *                       (anchors / regression coeffs)
  * @param unpredCount    escape-coded points (stored verbatim in the blob, 8 B each)
  * @param huffLLBytes    Deflate size of the blob's Huffman payload section
  *                       (the codebook is counted in `codebookBytes`)
  * @param p0             fraction of zero quantization codes
  * @param recon          reconstructed field (decompressor output)
  * @param blob           the compressed stream; [[Compressor.decompressBlob]]
  *                       decodes it to `recon`
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
    blob: Array[Byte],
) {
  private def overheadBytes: Long = codebookBytes.toLong + sideBytes + unpredCount.toLong * 8

  /** Compressed size with Huffman only (bytes): the blob less its
    * 24 + 4·ndim header bytes. */
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
  * pipeline: predictor → linear-scaling quantizer → Huffman → lossless
  * (Deflate), plus a full decompressor for roundtrip verification.
  *
  * Blob layout, big-endian:
  * [ndim:int][dims:int × ndim][eb:double][predictorId:int]
  * [unpredCount:int][unpred:double × unpredCount][sideLen:int][side]
  * [Huffman section: codebook, then payload, as [[Huffman]] lays it out].
  * The header fields take 24 + 4·ndim bytes; the rest are the sections that
  * [[CompressionResult]] measures. The lossless stage is measured, not
  * stored: it deflates the payload section.
  */
object Compressor {

  /** Compress once: predict, quantize and Huffman-code `field`, write the
    * blob, and measure its sections, deflating the payload section in place.
    */
  def compress(field: Field, ebAbs: Double, predictor: Predictor): CompressionResult = {
    val enc = encode(field, ebAbs, predictor)
    CompressionResult(
      predictor = predictor.name,
      eb = ebAbs,
      n = field.size,
      huffPayloadBits = enc.code.payloadBits,
      codebookBytes = enc.payloadAt - enc.huffAt,
      sideBytes = enc.out.sideBytes,
      unpredCount = enc.out.unpredictable.length,
      // the lossless stage sees the Huffman *payload*; the codebook is fixed
      // metadata accounted separately (as the model does)
      huffLLBytes = Lossless.compress(enc.blob, enc.payloadAt).length.toLong,
      p0 = enc.code.hist.count(0).toDouble / math.max(1, enc.out.codes.length),
      recon = enc.out.recon,
      blob = enc.blob,
    )
  }

  /** The blob of [[compress]] alone, without the lossless stage. */
  def compressToBlob(field: Field, ebAbs: Double, predictor: Predictor): Array[Byte] =
    encode(field, ebAbs, predictor).blob

  /** A written blob, with the offsets of its Huffman section and payload. */
  private final class Encoded(
      val out: PredictorOutput, val code: Huffman.Code, val blob: Array[Byte], val huffAt: Int, val payloadAt: Int)

  /** Predicts, quantizes and Huffman-codes `field` once, and writes the blob;
    * a predictor outside [[Predictor.all]] raises before anything runs. */
  private def encode(field: Field, ebAbs: Double, predictor: Predictor): Encoded = {
    val id = Predictor.idOf(predictor)
    val out = predictor.compress(field, new Quantizer(ebAbs))
    // one histogram feeds the code lengths, the payload and p0
    val code = Huffman.Code.of(Huffman.histogram(out.codes))
    val blob = new Array[Byte](
      4 + 4 * field.ndim + 8 + 4 + 4 + 8 * out.unpredictable.length + 4 + out.side.length + code.sectionBytes)
    val bb = java.nio.ByteBuffer.wrap(blob)
    bb.putInt(field.ndim)
    field.dims.foreach(bb.putInt)
    bb.putDouble(ebAbs)
    bb.putInt(id)
    bb.putInt(out.unpredictable.length)
    out.unpredictable.foreach(bb.putDouble)
    bb.putInt(out.side.length)
    bb.put(out.side)
    val huffAt = bb.position()
    new Encoded(out, code, blob, huffAt, code.write(out.codes, blob, huffAt))
  }

  /** Decompress a blob produced by [[compress]]. A header that is
    * truncated or carries an impossible count (ndim < 1, a dim < 1, more than
    * `Int.MaxValue` points, an unknown predictor id, more unpredictable
    * values or side bytes than the blob holds) raises
    * `IllegalArgumentException` before anything is allocated from it. The
    * Huffman section is decoded in place, and the predictor's decoder
    * rejects codes and unpredictable values that do not pair up.
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
    predictor.decompress(dims, new Quantizer(eb), Huffman.decode(blob, bb.position()), unpred, side)
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
