package repro.compressor

import org.scalatest.funsuite.AnyFunSuite

class RleSpec extends AnyFunSuite {

  test("empty input") {
    assert(Rle.bitsAfterZeroRunRle(Array.empty[Int], Map.empty) == 0L)
  }

  test("bitsAfterZeroRunRle: pure zeros cost RunLengthBits per run") {
    val codes = Array.fill(100)(0) // single run (< MaxRun)
    val bits = Rle.bitsAfterZeroRunRle(codes, Map(0 -> 1))
    assert(bits == Rle.RunLengthBits)
    // a run longer than MaxRun splits into 4 run tokens
    assert(Rle.bitsAfterZeroRunRle(Array.fill(Rle.MaxRun * 3 + 17)(0), Map(0 -> 1)) == 4 * Rle.RunLengthBits)
  }

  test("bitsAfterZeroRunRle: non-zeros cost their Huffman length") {
    val codes = Array(1, 2, 1)
    val bits = Rle.bitsAfterZeroRunRle(codes, Map(1 -> 2, 2 -> 3))
    assert(bits == 7)
  }

  test("bitsAfterZeroRunRle beats plain Huffman when zeros dominate") {
    val rnd = new java.util.Random(9)
    val codes = Array.fill(10000)(if (rnd.nextDouble() < 0.98) 0 else 1)
    val freqs = codes.groupBy(identity).map { case (s, a) => s -> a.length.toLong }
    val lens = Huffman.codeLengths(freqs)
    val plain = freqs.map { case (s, f) => f * lens(s) }.sum
    assert(Rle.bitsAfterZeroRunRle(codes, lens) < plain)
  }

  test("bitsAfterZeroRunRle matches expectation for alternating stream") {
    // 0,x,0,x...: each zero is a run of 1 costing 8 bits; worse than Huffman
    val codes = Array.tabulate(100)(i => if (i % 2 == 0) 0 else 1)
    val bits = Rle.bitsAfterZeroRunRle(codes, Map(0 -> 1, 1 -> 1))
    assert(bits == 50 * Rle.RunLengthBits + 50)
  }

  test("bitsAfterZeroRunRle tracks deflate behaviour in the zero-dominated regime") {
    // Brownian data: Lorenzo's 1-D delta decorrelates it fully, so a large
    // error bound gives the zero-dominated regime the lossless stage exploits
    val rnd = new java.util.Random(13)
    var acc = 0.0
    val f = repro.core.FieldSpec.of1d(Array.fill(32768) { acc += rnd.nextGaussian(); acc })
    val eb = 5e-2 * f.valueRange
    val res = Compressor.compress(f, eb, LorenzoPredictor)
    assert(res.p0 > 0.9)
    val codes = LorenzoPredictor.compress(f, new Quantizer(eb)).codes
    val freqs = codes.groupBy(identity).map { case (s, a) => s -> a.length.toLong }
    val rleGain = res.huffPayloadBits.toDouble / Rle.bitsAfterZeroRunRle(codes, Huffman.codeLengths(freqs))
    val deflateGain = res.huffPayloadBits / 8.0 / res.huffLLBytes
    // both capture the zero-run redundancy; they should agree within 2x
    assert(rleGain > deflateGain / 2 && rleGain < deflateGain * 2,
      s"rleGain=$rleGain deflateGain=$deflateGain")
  }
}
