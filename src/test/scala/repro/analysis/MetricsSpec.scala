package repro.analysis

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.Compressor
import repro.core.FieldSpec.of1d

class MetricsSpec extends AnyFunSuite {

  private val f = of1d(Array(0.0, 1.0, 2.0, 3.0))

  test("mse of identical fields is 0") {
    assert(Metrics.mse(f, f) == 0.0)
  }

  test("mse of constant offset") {
    val g = of1d(f.data.map(_ + 0.5))
    assert(math.abs(Metrics.mse(f, g) - 0.25) < 1e-12)
  }

  test("psnr of identical fields is infinite") {
    assert(Metrics.psnr(f, f).isPosInfinity)
  }

  test("psnr known value") {
    // range 3, mse 0.25 -> 10*log10(9/0.25) = 15.563 dB
    val g = of1d(f.data.map(_ + 0.5))
    assert(math.abs(Metrics.psnr(f, g) - 10 * math.log10(9 / 0.25)) < 1e-9)
  }

  test("psnr decreases as noise grows") {
    val rnd = new java.util.Random(27)
    val base = of1d(Array.fill(10000)(rnd.nextDouble() * 10))
    val ps = Seq(0.001, 0.01, 0.1).map { amp =>
      val r2 = new java.util.Random(28)
      val noisy = of1d(base.data.map(v => v + (r2.nextDouble() * 2 - 1) * amp))
      Metrics.psnr(base, noisy)
    }
    assert(ps == ps.sorted.reverse)
  }

  test("ssim of identical fields is 1") {
    val g = of1d(Array(1.0, 5.0, 2.0, 8.0))
    assert(math.abs(Metrics.ssimGlobal(g, g) - 1.0) < 1e-12)
  }

  test("ssim decreases with noise amplitude") {
    val rnd = new java.util.Random(29)
    val base = of1d(Array.fill(10000)(math.sin(rnd.nextDouble() * 6)))
    val ss = Seq(0.01, 0.1, 0.5).map { amp =>
      val r2 = new java.util.Random(30)
      val noisy = of1d(base.data.map(v => v + (r2.nextDouble() * 2 - 1) * amp))
      Metrics.ssimGlobal(base, noisy)
    }
    assert(ss == ss.sorted.reverse)
    assert(ss.forall(s => s > 0 && s <= 1))
  }

  test("ssim is symmetric-ish under small noise") {
    val rnd = new java.util.Random(31)
    val a = of1d(Array.fill(1000)(rnd.nextGaussian()))
    val b = of1d(a.data.map(_ + rnd.nextGaussian() * 0.01))
    assert(math.abs(Metrics.ssimGlobal(a, b) - Metrics.ssimGlobal(b, a)) < 0.02)
  }

  test("maxAbsError") {
    val g = of1d(Array(0.0, 1.5, 2.0, 2.0))
    assert(Compressor.maxAbsError(f, g) == 1.0)
  }

  test("shape mismatch rejected") {
    intercept[IllegalArgumentException](Metrics.mse(f, of1d(Array(1.0))))
  }
}
