package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.Huffman

class EncoderModelSpec extends AnyFunSuite {

  private def hist(counts: (Int, Int)*): Huffman.Histogram =
    Huffman.histogram(counts.toArray.flatMap { case (c, n) => Array.fill(n)(c) })

  private def log2(x: Double): Double = math.log(x) / math.log(2)

  /** The Miller–Madow term (K−1)/(2m·ln 2) for K distinct symbols in m points. */
  private def millerMadow(k: Int, m: Int): Double = (k - 1) / (2.0 * m * math.log(2))

  test("Eq. 1: uniform alphabet of 2^k symbols gives ~k bits") {
    val h = hist((0 until 16).map(i => i -> 10): _*)
    val b = EncoderModel.huffmanBitRate(h)
    assert(math.abs(b - (4.0 + millerMadow(16, 160))) < 1e-9)
  }

  test("Eq. 1: dominant symbol clamps at 1 bit") {
    val h = hist(0 -> 999, 1 -> 1)
    val b = EncoderModel.huffmanBitRate(h)
    // 0.999·1 (clamped) + 0.001·log2(1000)
    assert(math.abs(b - (0.999 * 1.0 + 0.001 * log2(1000) + millerMadow(2, 1000))) < 1e-12)
  }

  test("bit-rate decreases as distribution concentrates") {
    val spread = hist((0 until 64).map(i => i -> 10): _*)
    val tight = hist(0 -> 600, 1 -> 20, -1 -> 20)
    assert(EncoderModel.huffmanBitRate(tight) < EncoderModel.huffmanBitRate(spread))
  }

  test("Miller–Madow correction adds (K−1)/(2m·ln2)") {
    val h = hist((0 until 11).map(i => i -> 1): _*)
    val plain = log2(11) // 11 symbols of P = 1/11, each −log₂P > 1 bit
    val corr = EncoderModel.huffmanBitRate(h)
    assert(math.abs((corr - plain) - 10 / (2.0 * 11 * math.log(2))) < 1e-12)
  }

  test("bitRateWithLossless never exceeds the Huffman bit-rate") {
    val rnd = new java.util.Random(22)
    (0 until 20).foreach { _ =>
      val nz = rnd.nextInt(5)
      val h = hist((0 to nz).map(i => i -> (1 + rnd.nextInt(1000))): _*)
      assert(EncoderModel.entropyBitRate(h) <= EncoderModel.huffmanBitRate(h))
    }
  }
}
