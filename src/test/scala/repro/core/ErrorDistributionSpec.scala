package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ErrorDistributionSpec extends AnyFunSuite {

  test("Eq. 10: uniform variance is e²/3") {
    assert(math.abs(ErrorDistribution.uniformVariance(0.3) - 0.03) < 1e-12)
  }

  test("Eq. 10 matches empirical variance of uniform noise") {
    val rnd = new java.util.Random(23)
    val e = 0.7
    val xs = Array.fill(200000)((rnd.nextDouble() * 2 - 1) * e)
    val emp = xs.map(x => x * x).sum / xs.length
    assert(math.abs(emp - ErrorDistribution.uniformVariance(e)) < 0.01 * e * e)
  }

  test("centralBinVariance only sees |err| ≤ e") {
    val errors = Array(0.1, -0.1, 5.0, -5.0)
    val v = ErrorDistribution.centralBin(errors, 0.5).variance
    assert(math.abs(v - 0.01) < 1e-12)
  }

  test("centralBinVariance falls back to uniform when bin is empty") {
    val v = ErrorDistribution.centralBin(Array(5.0, -7.0), 0.5).variance
    assert(v == ErrorDistribution.uniformVariance(0.5))
  }

  test("Eq. 11: p0=0 reduces to uniform") {
    assert(ErrorDistribution.mixedVariance(0.4, 0.0, 123.0) == ErrorDistribution.uniformVariance(0.4))
  }

  test("Eq. 11: p0=1 reduces to the central-bin variance") {
    assert(ErrorDistribution.mixedVariance(0.4, 1.0, 0.0123) == 0.0123)
  }

  test("Eq. 11: mixture is between its two components") {
    val e = 0.5
    val central = 0.01
    val m = ErrorDistribution.mixedVariance(e, 0.6, central)
    assert(m > central && m < ErrorDistribution.uniformVariance(e))
  }

  test("mixed variance from a concentrated sample is below uniform") {
    val rnd = new java.util.Random(24)
    val errors = Array.fill(10000)(rnd.nextGaussian() * 0.01)
    val e = 0.5
    val p0 = errors.count(x => math.abs(x) <= e).toDouble / errors.length
    val v = ErrorDistribution.mixedVariance(e, p0, ErrorDistribution.centralBin(errors, e).variance)
    assert(v < ErrorDistribution.uniformVariance(e))
  }
}
