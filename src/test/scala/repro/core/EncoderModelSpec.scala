package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.Huffman

class EncoderModelSpec extends AnyFunSuite {

  private def hist(counts: (Int, Int)*): Huffman.Histogram =
    Huffman.histogram(counts.toArray.flatMap { case (c, n) => Array.fill(n)(c) })

  test("Eq. 1: uniform alphabet of 2^k symbols gives ~k bits") {
    val h = hist((0 until 16).map(i => i -> 10): _*)
    val b = EncoderModel.huffmanBitRate(h, biasCorrect = false)
    assert(math.abs(b - 4.0) < 1e-9)
  }

  test("Eq. 1: dominant symbol clamps at 1 bit") {
    val h = hist(0 -> 999, 1 -> 1)
    val b = EncoderModel.huffmanBitRate(h, biasCorrect = false)
    // 0.999·1 (clamped) + 0.001·log2(1000)
    assert(b >= 0.999 && b < 1.2)
  }

  test("bit-rate decreases as distribution concentrates") {
    val spread = hist((0 until 64).map(i => i -> 10): _*)
    val tight = hist(0 -> 600, 1 -> 20, -1 -> 20)
    assert(EncoderModel.huffmanBitRate(tight) < EncoderModel.huffmanBitRate(spread))
  }

  test("Miller–Madow correction adds (K−1)/(2m·ln2)") {
    val h = hist((0 until 11).map(i => i -> 1): _*)
    val plain = EncoderModel.huffmanBitRate(h, biasCorrect = false)
    val corr = EncoderModel.huffmanBitRate(h)
    assert(math.abs((corr - plain) - 10 / (2.0 * 11 * math.log(2))) < 1e-12)
  }

  test("Eq. 4: no zeros means no RLE gain") {
    assert(EncoderModel.rleRatio(0.0, 4.0) == 1.0)
  }

  test("Eq. 4: RLE gain only once zeros dominate past the break-even") {
    // break-even at p0 = 1 − 1/C1 = 0.875 for C1 = 8
    assert(EncoderModel.rleRatio(0.5, 1.5) == 1.0)
    assert(EncoderModel.rleRatio(0.99, 1.02) > 2.0)
  }

  test("Eq. 4: ratio grows monotonically in p0 in the dominated regime") {
    val rs = Seq(0.9, 0.95, 0.99, 0.999).map(p0 => EncoderModel.rleRatio(p0, 1.0 + (1 - p0)))
    assert(rs == rs.sorted)
  }

  test("Eq. 8 inverts Eq. 4 in the RLE-dominated regime") {
    // pick p0, compute the ratio as Eq. 8's derivation assumes (P0 ≈ p0, B ≈ 1)
    Seq(0.9, 0.95, 0.99).foreach { p0 =>
      val e0 = EncoderModel.C1 * (1 - p0)
      val r = 1.0 / (e0 * p0 + (1 - p0))
      if (r > 1) {
        val back = EncoderModel.p0ForRleRatio(r)
        assert(math.abs(back - p0) < 0.01, s"p0=$p0 r=$r back=$back")
      }
    }
  }

  test("Eq. 8 at ratio 1 gives the break-even zero fraction") {
    val p = EncoderModel.p0ForRleRatio(1.0)
    assert(math.abs(p - (EncoderModel.C1 - 1) / EncoderModel.C1) < 1e-9)
  }

  test("Eq. 8 is monotone increasing in the target ratio") {
    val ps = Seq(1.0, 1.5, 3.0, 10.0).map(EncoderModel.p0ForRleRatio)
    assert(ps == ps.sorted)
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
