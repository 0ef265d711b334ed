package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.FieldSpec.FieldCoords

class SciDataSpec extends AnyFunSuite {

  test("registry has 17 fields across 10 datasets (Table I/II shape)") {
    assert(SciData.fields.length == 17)
    assert(SciData.fields.map(_.dataset).distinct.length == 10)
  }

  test("dimensionalities mirror Table I") {
    def ndim(ds: String): Int = SciData.fields.find(_.dataset == ds).get.benchDims.length
    assert(ndim("HACC") == 1)
    assert(ndim("Brown") == 1)
    assert(ndim("CESM") == 2)
    assert(ndim("Hurricane") == 3)
    assert(ndim("Nyx") == 3)
    assert(ndim("RTM") == 3)
    assert(ndim("EXAFEL") == 4)
  }

  for (spec <- SciData.fields) {
    test(s"${spec.id}: generation is deterministic and well-formed (test dims)") {
      val a = spec.generate(test = true)
      val b = spec.generate(test = true)
      assert(a.data.toSeq == b.data.toSeq)
      assert(a.dims.toSeq == spec.testDims.toSeq)
      assert(a.valueRange > 0, "degenerate constant field")
      assert(a.data.forall(v => !v.isNaN && !v.isInfinite))
    }
  }

  test("test dims are smaller than bench dims") {
    SciData.fields.foreach { s =>
      assert(s.testDims.product < s.benchDims.product, s.id)
    }
  }

  test("byId resolves every field and rejects unknowns") {
    SciData.fields.foreach(s => assert(SciData.byId(s.dataset, s.fieldName).id == s.id))
    intercept[IllegalArgumentException](SciData.byId("nope", "nada"))
  }

  test("Nyx dark matter density has high dynamic range (lognormal)") {
    val f = SciData.byId("Nyx", "dark_matter_density").generate(test = true)
    val (mn, mx) = f.minMax
    assert(mn > 0)
    assert(mx / mn > 100, s"dynamic range ${mx / mn}")
  }

  test("EXAFEL detector data is integer counts with sparse peaks") {
    val f = SciData.byId("EXAFEL", "raw").generate(test = true)
    assert(f.data.forall(v => v == math.rint(v)))
    val bg = f.data.count(_ < 100).toDouble / f.size
    assert(bg > 0.95, s"background fraction $bg") // peaks are sparse
    assert(f.minMax._2 > 400) // but bright
  }

  test("Brownian data has increasing variance over windows (random walk)") {
    val f = SciData.byId("Brown", "pressure").generate(test = true)
    val n = f.size
    def windowVar(lo: Int, hi: Int): Double = {
      val xs = f.data.slice(lo, hi)
      val mu = xs.sum / xs.length
      xs.map(x => (x - mu) * (x - mu)).sum / xs.length
    }
    // full-range variance far exceeds local-window variance
    val local = (0 until 8).map(i => windowVar(i * n / 8, i * n / 8 + n / 64)).max
    assert(f.variance > local * 2)
  }

  test("RTM snapshots at different t differ (wavefront moves)") {
    val a = SciData.byId("RTM", "1000").generate(test = true)
    val b = SciData.byId("RTM", "3000").generate(test = true)
    val diff = a.data.zip(b.data).count { case (x, y) => math.abs(x - y) > 1e-9 }
    assert(diff > a.size / 10)
  }

  test("HACC positions are a noisy ramp (monotone trend)") {
    val f = SciData.byId("HACC", "xx").generate(test = true)
    assert(f.data.last > f.data.head)
  }

  test("smoothNoise is smoother than white noise") {
    val dims = Array(64, 64)
    val smooth = SciData.smoothNoise(dims, 1, passes = 3, amp = 1.0)
    val rnd = new java.util.Random(1)
    val white = Array.fill(dims.product)(rnd.nextGaussian())
    def lag1(a: Array[Double]): Double = {
      val mu = a.sum / a.length
      var c = 0.0; var v = 0.0
      (1 until a.length).foreach { i => c += (a(i) - mu) * (a(i - 1) - mu); v += (a(i) - mu) * (a(i) - mu) }
      c / v
    }
    assert(lag1(smooth.data) > 0.5)
    assert(math.abs(lag1(white)) < 0.1)
  }
}
