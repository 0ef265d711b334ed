package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.Quantizer

class HistogramSpec extends AnyFunSuite {

  test("fromErrors quantizes with interval 2*eb") {
    val errors = Array(0.0, 0.4, -0.4, 1.0, -1.0, 2.1)
    val h = Histogram.fromErrors(errors, 0.5, 0.0)
    assert(h.count(0) == 3) // 0.0, 0.4, -0.4
    assert(h.count(1) == 1) // 1.0
    assert(h.count(-1) == 1)
    assert(h.count(2) == 1) // 2.1
    assert(h.total == 6)
  }

  test("p0 is the zero-code fraction") {
    val h = Histogram.fromErrors(Array(0.0, 0.1, 5.0, -5.0), 1.0, 0.0)
    assert(h.p0 == 0.5)
  }

  test("escape codes counted under the Escape symbol") {
    val h = Histogram.fromErrors(Array(0.0, 1e9), 1e-6, 0.0)
    assert(h.count(Quantizer.Escape) == 1)
  }

  test("NaN errors escape") {
    val h = Histogram.fromErrors(Array(Double.NaN, 0.0), 1.0, 0.0)
    assert(h.count(Quantizer.Escape) == 1)
  }

  test("probabilities sum to 1") {
    val rnd = new java.util.Random(20)
    val errors = Array.fill(1000)(rnd.nextGaussian())
    val h = Histogram.fromErrors(errors, 0.3, 0.0)
    assert(math.abs(h.counts.map(_.toDouble / h.total).sum - 1.0) < 1e-9)
  }

  test("pMax ≥ p0") {
    val h = Histogram.fromErrors(Array(1.0, 1.1, 0.0), 0.2, 0.0)
    assert(h.counts.max.toDouble / h.total >= h.p0)
  }

  test("empty histogram rejected") {
    intercept[IllegalArgumentException](Histogram.fromErrors(Array.empty, 1.0, 0.0))
  }

  test("fromErrors rejects non-positive eb") {
    intercept[IllegalArgumentException](Histogram.fromErrors(Array(1.0), 0.0, 0.0))
  }
}
