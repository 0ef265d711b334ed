package repro.core

import org.scalatest.funsuite.AnyFunSuite

class FeedbackSpec extends AnyFunSuite {

  test("regression has no drift correction") {
    assert(Feedback.driftRate("regression", 0.99, 0.1, 1.0) == 0.0)
  }

  test("no correction below the θ2 threshold") {
    assert(Feedback.driftRate("interp", 0.5, 0.1, 1.0) == 0.0)
  }

  test("no correction in the noise regime (σ/e above the cutoff)") {
    assert(Feedback.driftRate("interp", 0.95, 0.6, 1.0) == 0.0)
  }

  test("rate follows Cd·(σ/e)² in the drift regime") {
    val r = Feedback.driftRate("interp", 0.95, 0.2, 1.0)
    assert(math.abs(r - Feedback.CdInterp * 0.04) < 1e-12)
  }

  test("rate is capped at 0.5") {
    // the σ/e cutoff is the cap: the rate peaks at Cd·MaxSigmaRatio² = 0.125
    val m = Feedback.MaxSigmaRatio
    val peak = Feedback.driftRate("interp", 0.95, m, 1.0)
    assert(peak == Feedback.CdInterp * m * m)
    assert(peak <= 0.5)
    assert(Feedback.driftRate("interp", 0.95, math.nextUp(m), 1.0) == 0.0)
  }

  test("applyDrift moves central mass to the ±1 bins, conserving total") {
    val h = CodeHistogram(Map(0 -> 1000L, 2 -> 10L), 1010L)
    val out = Feedback.applyDrift(h, 0.1)
    assert(out.counts(0) == 900)
    assert(out.counts(1) + out.counts(-1) == 100)
    assert(out.counts(2) == 10)
    assert(out.total == h.total)
  }

  test("applyDrift with zero rate is identity") {
    val h = CodeHistogram(Map(0 -> 100L), 100L)
    assert(Feedback.applyDrift(h, 0.0) eq h)
  }

  test("applyDrift without a central bin is identity") {
    val h = CodeHistogram(Map(3 -> 100L), 100L)
    assert(Feedback.applyDrift(h, 0.3) eq h)
  }

  test("drift lowers the model p0 and raises the bit-rate estimate") {
    val h = CodeHistogram(Map(0 -> 990L, 1 -> 5L, -1 -> 5L), 1000L)
    val drifted = Feedback.applyDrift(h, 0.2)
    assert(drifted.p0 < h.p0)
    assert(EncoderModel.huffmanBitRate(drifted) > EncoderModel.huffmanBitRate(h))
  }
}
