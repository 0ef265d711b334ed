package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.{InterpolationPredictor, LorenzoPredictor, Predictor, Quantizer}
import repro.data.SciData

/** `RQModel.errVariance` is the estimate's error variance without the rest
  * of the estimate: bit for bit equal to `estimate(eb).errVariance` on every
  * registry model, over a bound sweep wide enough to reach each of its
  * branches.
  */
class ErrVarianceSpec extends AnyFunSuite {

  /** Relative error bounds 1e-6 … 10, half a decade apart. */
  private val ebRels: Seq[Double] = (-12 to 2).map(k => math.pow(10, k / 2.0))

  test("errVariance equals estimate(eb).errVariance bitwise on the 51 test-dim models") {
    var escapes = 0
    var interpDrift = 0
    var lorenzoMixes = 0
    for {
      spec <- SciData.fields
      f = spec.generate(test = true)
      p <- Predictor.all
      model = RQModel.build(f, p)
      rel <- ebRels
    } {
      val eb = rel * f.valueRange
      val v = model.errVariance(eb)
      val expected = model.estimate(eb).errVariance
      assert(java.lang.Double.doubleToRawLongBits(v) == java.lang.Double.doubleToRawLongBits(expected),
        s"${spec.id}/${p.name} rel=$rel: errVariance $v, estimate $expected")
      val s = model.sample
      if (p == LorenzoPredictor) {
        val sim = PatchSim.simulate(s.patches, eb)
        if (sim.codes.contains(Quantizer.Escape)) escapes += 1
        // the uniform floor of a mixed walk binds
        if (v == ErrorDistribution.uniformVariance(eb) && sim.errVariance < v) lorenzoMixes += 1
      } else {
        if (Histogram.fromErrors(s.errors, eb, 0.0).count(Quantizer.Escape) > 0) escapes += 1
        val bin = ErrorDistribution.centralBin(s.errors, eb)
        val p0Raw = bin.zeros.toDouble / s.errors.length
        if (p == InterpolationPredictor && p0Raw >= Feedback.Theta2 &&
            Feedback.driftRate(s.predictor, p0Raw, math.sqrt(bin.variance), eb) > 0) interpDrift += 1
      }
    }
    assert(escapes > 0, "no case with escape codes")
    assert(interpDrift > 0, "no interpolation case in the drift regime")
    assert(lorenzoMixes > 0, "no Lorenzo case whose drift walk mixes")
  }
}
