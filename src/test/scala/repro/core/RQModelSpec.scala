package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.analysis.Metrics
import repro.compressor.{Compressor, LorenzoPredictor, Predictor}
import repro.data.SciData

/** End-to-end model-vs-measured checks: the heart of the reproduction.
  * Thresholds are deliberately looser than the bench-scale Table II numbers
  * (test-scale fields are small, so sampling noise is larger), but tight
  * enough to catch a broken model stage.
  */
class RQModelSpec extends AnyFunSuite {

  private lazy val fields = Seq(
    SciData.rtmSnapshot3d(2000)(Array(24, 32, 32), 101),
    SciData.climate2d(Array(90, 180), 202),
    SciData.brownian1d(Array(32768), 601),
  )
  private val ebRels = Seq(1e-4, 1e-3, 1e-2, 5e-2)

  for (p <- Predictor.all) {
    test(s"${p.name}: Huffman bit-rate estimate within 25% across the sweep") {
      fields.foreach { f =>
        val model = RQModel.build(f, p)
        ebRels.foreach { r =>
          val eb = r * f.valueRange
          val est = model.estimate(eb)
          val meas = Compressor.compress(f, eb, p)
          val ratio = est.huffBitRate / meas.huffBitRate
          assert(ratio > 0.75 && ratio < 1.35,
            s"dims=${f.dims.mkString("x")} ebRel=$r est=${est.huffBitRate} meas=${meas.huffBitRate}")
        }
      }
    }

    test(s"${p.name}: PSNR estimate within 6 dB across the sweep") {
      // 6 dB covers the hardest regime (extreme eb, reconstruction drift);
      // mid-sweep accuracy is far tighter — see the Table II bench.
      fields.foreach { f =>
        val model = RQModel.build(f, p)
        ebRels.foreach { r =>
          val eb = r * f.valueRange
          val est = model.estimate(eb)
          val meas = Metrics.psnr(f, Compressor.compress(f, eb, p).recon)
          assert(math.abs(est.psnr - meas) < 6.0,
            s"dims=${f.dims.mkString("x")} ebRel=$r est=${est.psnr} meas=$meas")
        }
      }
    }

    test(s"${p.name}: estimated bit-rate is monotone non-increasing in eb") {
      val f = fields.head
      val model = RQModel.build(f, p)
      val bs = Seq(1e-5, 1e-4, 1e-3, 1e-2, 5e-2, 2e-1).map(r => model.estimate(r * f.valueRange).huffBitRate)
      bs.sliding(2).foreach { case Seq(a, b) => assert(b <= a + 0.15, bs.toString) }
    }

    test(s"${p.name}: estimated PSNR is monotone decreasing in eb") {
      val f = fields.head
      val model = RQModel.build(f, p)
      val ps = Seq(1e-5, 1e-4, 1e-3, 1e-2).map(r => model.estimate(r * f.valueRange).psnr)
      ps.sliding(2).foreach { case Seq(a, b) => assert(b < a, ps.toString) }
    }
  }

  test("errorBoundForBitRate: compressing at the returned eb lands near the target") {
    val f = fields.head
    val p = LorenzoPredictor
    val model = RQModel.build(f, p)
    Seq(2.0, 4.0, 6.0).foreach { target =>
      val eb = model.errorBoundForBitRate(target)
      val meas = Compressor.compress(f, eb, p).huffLLBitRate
      assert(math.abs(meas - target) < 1.5, s"target=$target measured=$meas eb=$eb")
    }
  }

  test("errorBoundForBitRate: low-bit-rate targets use the RLE/anchor regime") {
    val f = SciData.climate2d(Array(90, 180), 202)
    val p = LorenzoPredictor
    val model = RQModel.build(f, p)
    val eb = model.errorBoundForBitRate(0.9)
    val meas = Compressor.compress(f, eb, p)
    val measB = meas.huffLLBitRate
    assert(measB < 2.5, s"target=0.9 measured=$measB eb=$eb")
  }

  test("errorBoundForBitRate is monotone decreasing in the target") {
    val f = fields.head
    val model = RQModel.build(f, LorenzoPredictor)
    val ebs = Seq(1.5, 3.0, 5.0, 8.0).map(b => model.errorBoundForBitRate(b))
    ebs.sliding(2).foreach { case Seq(a, b) => assert(b < a, ebs.toString) }
  }

  test("errorBoundForPsnr: measured PSNR lands within 3 dB of the target") {
    val f = fields.head
    val p = LorenzoPredictor
    val model = RQModel.build(f, p)
    Seq(45.0, 60.0, 80.0).foreach { target =>
      val eb = model.errorBoundForPsnr(target)
      val meas = Metrics.psnr(f, Compressor.compress(f, eb, p).recon)
      assert(math.abs(meas - target) < 4.0, s"target=$target measured=$meas")
    }
  }

  private lazy val registryModels: Seq[(String, RQModel)] =
    for (spec <- SciData.fields; f = spec.generate(test = true); p <- Predictor.all)
      yield (s"${spec.id}/${p.name}", RQModel.build(f, p))

  private def modelPsnr(m: RQModel, eb: Double): Double = QualityModel.psnr(m.sample.range, m.errVariance(eb))

  /** The model PSNR crosses `target` within a relative 1e-12 of `eb`: the
    * search stopped at a jump of the model's step-function variance.
    */
  private def atJump(m: RQModel, eb: Double, target: Double): Boolean =
    modelPsnr(m, eb * (1 - 1e-12)) >= target && modelPsnr(m, eb * (1 + 1e-12)) <= target

  test("errorBoundForPsnr: model PSNR within 0.01 dB of the target, else a bracket end or a jump") {
    for ((id, m) <- registryModels; target <- Seq(40.0, 55.0, 70.0, 85.0, 100.0)) {
      val eb = m.errorBoundForPsnr(target)
      assert(eb > 0 && !eb.isInfinite, s"$id at $target dB: eb=$eb")
      val miss = modelPsnr(m, eb) - target
      // the bracket: Eq. 12's uniform closed form, a factor of 64 either way, clamped
      val e0 = math.sqrt(3 * QualityModel.errVarianceForPsnr(m.sample.range, target))
      def clamp(e: Double): Double = math.min(math.max(e, m.sample.range * 1e-12), m.sample.range * 10)
      val beyondBracket = (eb == clamp(e0 / 64) && miss <= 0) || (eb == clamp(e0 * 64) && miss >= 0)
      // the search's stop is |ln(σ²/σ²*)| ≤ 0.01 dB in nepers; 1e-9 dB covers the rounding between the two forms
      assert(math.abs(miss) <= 0.01 + 1e-9 || beyondBracket || atJump(m, eb, target),
        s"$id at $target dB: eb=$eb misses by $miss dB")
    }
  }

  test("errorBoundForPsnr: a target inside a jump of EXAFEL/raw's Lorenzo model stops at the jump") {
    // integer counts: PatchSim's variance is a step function of eb near the
    // count spacing, and 79.5 dB (eb about 1.5) falls inside one of its jumps
    val spec = SciData.fields.find(_.id == "EXAFEL/raw").get
    val m = RQModel.build(spec.generate(test = true), LorenzoPredictor)
    val eb = m.errorBoundForPsnr(79.5)
    assert(eb > 0 && !eb.isInfinite)
    assert(math.abs(modelPsnr(m, eb) - 79.5) > 0.01, "no jump here: the tolerance was met")
    assert(atJump(m, eb, 79.5), s"eb=$eb")
  }

  test("estimate is deterministic") {
    val f = fields.head
    val model = RQModel.build(f, LorenzoPredictor)
    val a = model.estimate(1e-3)
    val b = model.estimate(1e-3)
    assert(a == b)
  }

  test("accuracyError (Eq. 20): identical series has zero error") {
    assert(RQModel.accuracyError(Seq(1.0, 2.0, 3.0), Seq(1.0, 2.0, 3.0)) == 0.0)
  }

  test("accuracyError: uniform scaling is pure bias, STD small") {
    // Eq. 20 uses STD, so a constant multiplicative offset contributes nothing
    val e = RQModel.accuracyError(Seq(1.0, 2.0, 3.0), Seq(1.1, 2.2, 3.3))
    assert(e < 1e-12)
  }

  test("accuracyError grows with scatter") {
    val small = RQModel.accuracyError(Seq(1.0, 2.0, 3.0), Seq(1.02, 1.96, 3.05))
    val large = RQModel.accuracyError(Seq(1.0, 2.0, 3.0), Seq(1.5, 1.4, 4.5))
    assert(small < large)
  }

  test("accuracyErrorFloored ignores sub-floor magnitudes") {
    val e = RQModel.accuracyErrorFloored(Seq(0.001, 1.0), Seq(0.04, 1.0))
    assert(e == 0.0)
  }
}
