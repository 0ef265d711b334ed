package repro.compressor

import org.scalatest.funsuite.AnyFunSuite

class QuantizerSpec extends AnyFunSuite {

  /** The code and the reconstructed value a predictor stores for a point. */
  private def quantize(q: Quantizer, pred: Double, actual: Double): (Int, Double) = {
    val code = q.quantize(pred, actual)
    if (code.isNaN) (Quantizer.Escape, actual) else (code.toInt, pred + code * q.interval)
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
    assert(q.quantize(5.0, 5.9) == 0)
    assert(q.quantize(5.0, 4.1) == 0)
  }

  test("code magnitude grows with prediction error") {
    val q = new Quantizer(0.1)
    assert(q.quantize(0.0, 1.0) == 5)
    assert(q.quantize(0.0, -1.0) == -5)
  }

  test("escape on out-of-range prediction error") {
    val q = new Quantizer(1e-6)
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

  /** `quantize`'s reference: [[QuantizerReference.code]] as a double code,
    * NaN for an escape.
    */
  private def divisionReference(q: Quantizer, pred: Double, actual: Double): Double =
    QuantizerReference.code(q, pred, actual) match { case Quantizer.Escape => Double.NaN; case c => c.toDouble }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** `quantize` equals the reference bitwise, and a code reconstructs to
    * `reconstruct`'s bits.
    */
  private def assertQuantize(q: Quantizer, pred: Double, actual: Double): Unit = {
    val got = q.quantize(pred, actual)
    val want = divisionReference(q, pred, actual)
    assert(bits(got) == bits(want), s"eb=${q.eb} pred=$pred actual=$actual: quantize $got, reference $want")
    if (!got.isNaN) assert(bits(pred + got * q.interval) == bits(q.reconstruct(pred, got.toInt)))
  }

  /** `x` and its neighbours up to `n` ulps either side. */
  private def ulpsAround(x: Double, n: Int): Seq[Double] = {
    val up = Iterator.iterate(x)((d: Double) => math.nextUp(d)).slice(1, n + 1).toSeq
    val down = Iterator.iterate(x)((d: Double) => math.nextDown(d)).slice(1, n + 1).toSeq
    down.reverse ++ (x +: up)
  }

  test("quantize equals the division at exact half-integer quotients and 1-4 ulps either side") {
    for (eb <- Seq(0.1, 1.0 / 3, 7e-5)) {
      val q = new Quantizer(eb)
      var exact = 0
      for (k <- Seq(0, 1, 2, 7, 100, 4095, 32766, 32767); sign <- Seq(1.0, -1.0); pred <- Seq(0.0, 3.25)) {
        val t = sign * (k + 0.5)
        // diffs whose quotient is t exactly, and their neighbours
        ulpsAround(t * q.interval, 8).filter(_ / q.interval == t).foreach { diff =>
          exact += 1
          ulpsAround(diff, 4).foreach(d => assertQuantize(q, pred, pred + d))
        }
        ulpsAround(t * q.interval, 4).foreach(d => assertQuantize(q, pred, pred + d))
      }
      assert(exact > 0, s"eb=$eb: no exact half-integer quotient reached")
    }
  }

  test("quantize equals the division at |q| = 32767 and 32768") {
    for (eb <- Seq(0.1, 1.0 / 3, 7e-5, 1.0); k <- Seq(32767.0, 32768.0); sign <- Seq(1.0, -1.0)) {
      val q = new Quantizer(eb)
      ulpsAround(sign * k * q.interval, 4).foreach(d => assertQuantize(q, 0.0, d))
    }
    val q = new Quantizer(0.5)
    assert(q.quantize(0.0, 32767.0) == 32767.0)
    assert(q.quantize(0.0, 32768.0).isNaN)
  }

  test("quantize escapes NaN and infinite inputs as the division does") {
    val q = new Quantizer(0.1)
    val odd = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    for (x <- odd; y <- odd ++ Seq(0.0, 1.0, -1e300)) { assertQuantize(q, x, y); assertQuantize(q, y, x) }
    assert(q.quantize(0.0, Double.PositiveInfinity).isNaN)
  }

  test("quantize equals the division when 1/interval or interval is not a normal double") {
    val rnd = new java.util.Random(5)
    // 2·MinPositiveValue is subnormal and its inverse infinite; near
    // MaxValue/2 the inverse is subnormal
    for (eb <- Seq(1e-300, Double.MinPositiveValue, Double.MaxValue / 2, math.nextDown(Double.MaxValue / 2), Double.MaxValue / 3)) {
      val q = new Quantizer(eb)
      for (k <- Seq(0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 100.5, 32767.0, 32768.0); sign <- Seq(1.0, -1.0))
        ulpsAround(sign * k * q.interval, 2).foreach(d => assertQuantize(q, 0.0, d))
      (0 until 200).foreach { _ =>
        val pred = rnd.nextGaussian() * eb * 10
        assertQuantize(q, pred, pred + rnd.nextGaussian() * eb * 10)
      }
    }
  }

  test("quantize: a small negative error at pred = -0.0 codes +0.0 and reconstructs as pred + 0.0") {
    val q = new Quantizer(0.1)
    val code = q.quantize(-0.0, -1e-3)
    assert(bits(code) == bits(0.0))
    assert(bits(-0.0 + code * q.interval) == bits(0.0))
    assert(bits(-0.0 + code * q.interval) == bits(q.reconstruct(-0.0, QuantizerReference.code(q, -0.0, -1e-3))))
    assertQuantize(q, -0.0, -1e-3)
    assertQuantize(q, -0.0, -0.0)
    assertQuantize(q, 0.0, -0.0)
  }

  test("property: quantize equals the division on random pairs across error-bound magnitudes") {
    val rnd = new java.util.Random(3)
    Seq(1e-12, 7e-5, 0.1, 1.0 / 3, 1.0, 1e6).foreach { eb =>
      val q = new Quantizer(eb)
      (0 until 20000).foreach { i =>
        val pred = rnd.nextGaussian() * 100
        // errors from sub-bound to past the escape radius
        val scale = eb * math.pow(10, (i % 7) - 1)
        assertQuantize(q, pred, pred + rnd.nextGaussian() * scale)
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
}
