package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.{LorenzoPredictor, Predictor, Quantizer}
import repro.data.SciData

/** `RQModel.llBitRate` is the estimate's Huffman + lossless bit-rate without
  * the rest of the estimate: bit for bit equal to `estimate(eb).llBitRate`
  * on every registry model, over ErrVarianceSpec's bound sweep, which
  * reaches escapes, both drift corrections and the all-zero regime.
  */
class LlBitRateSpec extends AnyFunSuite {

  /** Relative error bounds 1e-6 … 10, half a decade apart. */
  private val ebRels: Seq[Double] = (-12 to 2).map(k => math.pow(10, k / 2.0))

  test("llBitRate equals estimate(eb).llBitRate bitwise on the 51 test-dim models") {
    var escapes = 0
    var lorenzoDrift = 0
    var analyticDrift = 0
    for {
      spec <- SciData.fields
      f = spec.generate(test = true)
      p <- Predictor.all
      model = RQModel.build(f, p)
      rel <- ebRels
    } {
      val eb = rel * f.valueRange
      val b = model.llBitRate(eb)
      val expected = model.estimate(eb).llBitRate
      assert(java.lang.Double.doubleToRawLongBits(b) == java.lang.Double.doubleToRawLongBits(expected),
        s"${spec.id}/${p.name} rel=$rel: llBitRate $b, estimate $expected")
      val s = model.sample
      if (p == LorenzoPredictor) {
        val sim = PatchSim.simulate(s.patches, eb)
        if (sim.codes.contains(Quantizer.Escape)) escapes += 1
        if (Feedback.moved(sim.zeros.toLong, model.patchDriftRate(sim, eb)) > 0) lorenzoDrift += 1
      } else {
        val bin = ErrorDistribution.centralBin(s.errors, eb)
        if (Histogram.fromErrors(s.errors, eb, 0.0).count(Quantizer.Escape) > 0) escapes += 1
        if (Feedback.moved(bin.zeros, model.driftRate(bin, eb)) > 0) analyticDrift += 1
      }
    }
    assert(escapes > 0, "no case with escape codes")
    assert(lorenzoDrift > 0, "no Lorenzo case whose long-range drift moves codes")
    assert(analyticDrift > 0, "no analytic case whose drift moves codes")
  }
}
