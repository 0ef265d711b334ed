package repro.core

import org.scalatest.funsuite.AnyFunSuite

class QualityModelSpec extends AnyFunSuite {

  test("Eq. 12: PSNR of range 1, variance 1e-4 is 40 dB") {
    assert(math.abs(QualityModel.psnr(1.0, 1e-4) - 40.0) < 1e-9)
  }

  test("Eq. 12: PSNR scales +20 dB per 10x range") {
    val a = QualityModel.psnr(1.0, 1e-4)
    val b = QualityModel.psnr(10.0, 1e-4)
    assert(math.abs(b - a - 20.0) < 1e-9)
  }

  test("Eq. 12: zero variance gives infinite PSNR") {
    assert(QualityModel.psnr(1.0, 0.0).isPosInfinity)
  }

  test("errVarianceForPsnr inverts psnr") {
    Seq((1.0, 40.0), (123.0, 56.0), (0.5, 80.0)).foreach { case (range, target) =>
      val v = QualityModel.errVarianceForPsnr(range, target)
      assert(math.abs(QualityModel.psnr(range, v) - target) < 1e-9)
    }
  }

  test("Eq. 15: SSIM is 1 with zero error variance") {
    assert(QualityModel.ssim(2.0, 10.0, 0.0) == 1.0)
  }

  test("Eq. 15: SSIM decreases with error variance") {
    val ss = Seq(0.0, 0.1, 1.0, 10.0).map(v => QualityModel.ssim(2.0, 10.0, v))
    assert(ss == ss.sorted.reverse)
    assert(ss.forall(s => s > 0 && s <= 1))
  }

  test("Eq. 15: higher field variance tolerates more error") {
    val lowVar = QualityModel.ssim(0.5, 10.0, 1.0)
    val highVar = QualityModel.ssim(50.0, 10.0, 1.0)
    assert(highVar > lowVar)
  }

  test("model SSIM matches measured global SSIM for injected uniform noise") {
    val rnd = new java.util.Random(25)
    val dims = Array(64, 64)
    val orig = FieldSpec.tabulate(dims)(i => math.sin(i * 0.01) * 5)
    val e = 0.25
    val noisy = Field(orig.data.map(v => v + (rnd.nextDouble() * 2 - 1) * e), dims)
    val meas = repro.analysis.Metrics.ssimGlobal(orig, noisy)
    val est = QualityModel.ssim(orig.variance, orig.valueRange, ErrorDistribution.uniformVariance(e))
    assert(math.abs(meas - est) < 0.01, s"meas=$meas est=$est")
  }

  test("model PSNR matches measured PSNR for injected uniform noise") {
    val rnd = new java.util.Random(26)
    val dims = Array(128, 128)
    val orig = FieldSpec.tabulate(dims)(i => math.cos(i * 0.02) * 3)
    val e = 0.1
    val noisy = Field(orig.data.map(v => v + (rnd.nextDouble() * 2 - 1) * e), dims)
    val meas = repro.analysis.Metrics.psnr(orig, noisy)
    val est = QualityModel.psnr(orig.valueRange, ErrorDistribution.uniformVariance(e))
    assert(math.abs(meas - est) < 0.2, s"meas=$meas est=$est")
  }
}
