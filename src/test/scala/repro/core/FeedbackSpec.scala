package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.Huffman

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

  private def hist(counts: (Int, Int)*): Huffman.Histogram =
    Huffman.histogram(counts.toArray.flatMap { case (c, n) => Array.fill(n)(c) })

  test("applyDrift moves central mass to the ±1 bins, conserving total") {
    val out = Feedback.applyDrift(hist(0 -> 1000, 2 -> 10), 0.1)
    assert(out.count(0) == 900)
    assert(out.count(1) == 50 && out.count(-1) == 50)
    assert(out.count(2) == 10)
    assert(out.total == 1010)
    assert(out.counts.sum == 1010)
  }

  test("applyDrift with zero rate is identity") {
    val h = hist(0 -> 100)
    assert(Feedback.applyDrift(h, 0.0) eq h)
  }

  test("applyDrift without a central bin is identity") {
    val h = hist(3 -> 100)
    assert(Feedback.applyDrift(h, 0.3) eq h)
  }

  test("drift lowers the model p0 and raises the bit-rate estimate") {
    val h = hist(0 -> 990, 1 -> 5, -1 -> 5)
    val drifted = Feedback.applyDrift(h, 0.2)
    assert(drifted.p0 < h.p0)
    assert(EncoderModel.huffmanBitRate(drifted) > EncoderModel.huffmanBitRate(h))
  }
}
