package repro.compressor

import org.scalatest.funsuite.AnyFunSuite

class QuantizerSpec extends AnyFunSuite {

  /** The code and the reconstructed value a predictor stores for a point. */
  private def quantize(q: Quantizer, pred: Double, actual: Double): (Int, Double) = {
    val code = q.code(pred, actual)
    (code, if (code == Quantizer.Escape) actual else q.reconstruct(pred, code))
  }

  test("quantize respects the error bound for in-range codes") {
    val q = new Quantizer(0.5)
    for (pred <- Seq(-10.0, 0.0, 3.3); actual <- Seq(-12.0, -0.2, 0.0, 0.49, 7.7)) {
      val (code, recon) = quantize(q, pred, actual)
      assert(code != Quantizer.Escape)
      assert(math.abs(recon - actual) <= 0.5 + 1e-12)
    }
  }

  test("zero code when prediction within eb") {
    val q = new Quantizer(1.0)
    assert(q.code(5.0, 5.9) == 0)
    assert(q.code(5.0, 4.1) == 0)
  }

  test("code magnitude grows with prediction error") {
    val q = new Quantizer(0.1)
    assert(q.code(0.0, 1.0) == 5)
    assert(q.code(0.0, -1.0) == -5)
  }

  test("escape on out-of-range prediction error") {
    val q = new Quantizer(1e-6, radius = 16)
    val (code, recon) = quantize(q, 0.0, 1.0)
    assert(code == Quantizer.Escape)
    assert(recon == 1.0)
  }

  test("escape on NaN-producing input") {
    val q = new Quantizer(1.0)
    val (code, recon) = quantize(q, Double.NaN, 2.0)
    assert(code == Quantizer.Escape)
    assert(recon == 2.0)
  }

  test("escape preserves huge magnitude values exactly") {
    val q = new Quantizer(1e-12)
    val v = 1e300
    val (code, recon) = quantize(q, 0.0, v)
    assert(code == Quantizer.Escape)
    assert(recon == v)
  }

  test("property: reconstruct inverts quantize and bound holds (1000 random pairs)") {
    val rnd = new java.util.Random(1)
    val q = new Quantizer(0.25)
    (0 until 1000).foreach { _ =>
      val pred = rnd.nextDouble() * 200 - 100
      val actual = rnd.nextDouble() * 200 - 100
      val (code, recon) = quantize(q, pred, actual)
      if (code != Quantizer.Escape) {
        assert(recon == q.reconstruct(pred, code))
        assert(math.abs(recon - actual) <= q.eb + 1e-9)
      }
    }
  }

  test("property: bound holds across error-bound magnitudes") {
    val rnd = new java.util.Random(2)
    Seq(1e-8, 1e-4, 1e-1, 1.0, 100.0).foreach { eb =>
      val q = new Quantizer(eb)
      (0 until 200).foreach { _ =>
        val pred = rnd.nextGaussian() * 10
        val actual = pred + rnd.nextGaussian() * eb * 5
        val (code, recon) = quantize(q, pred, actual)
        if (code != Quantizer.Escape) assert(math.abs(recon - actual) <= eb * (1 + 1e-9))
        else assert(recon == actual)
      }
    }
  }

  test("interval is twice the error bound") {
    assert(new Quantizer(0.7).interval == 1.4)
  }

  test("rejects non-positive error bound") {
    intercept[IllegalArgumentException](new Quantizer(0.0))
    intercept[IllegalArgumentException](new Quantizer(-1.0))
  }

  test("rejects degenerate radius") {
    intercept[IllegalArgumentException](new Quantizer(1.0, radius = 1))
  }
}
