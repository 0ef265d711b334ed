package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.{InterpolationPredictor, InterpolationTraversalSpec, Predictor, RegressionPredictor}
import repro.compressor.LorenzoStencilSpec.{bits, mixedField}
import scala.collection.mutable.ArrayBuffer

/** Pins the interpolation and regression prediction kernels that the
  * sampler and the full scan share with the compressor, bit for bit, against
  * the boxed full-scan loops that wrote each prediction out inline.
  */
class PredictionKernelSpec extends AnyFunSuite {

  /** The boxed full-scan loops, kept as the reference definition. */
  private def referenceFullErrors(field: Field, predictor: Predictor): Array[Double] = predictor match {
    case InterpolationPredictor =>
      val buf = ArrayBuffer.empty[Double]
      InterpolationTraversalSpec.referenceTraverse(field.dims).foreach { case (idx, isAnchor, p1, p2) =>
        if (!isAnchor) {
          val pred = if (p2 >= 0) 0.5 * (field.data(p1) + field.data(p2)) else field.data(p1)
          buf += field.data(idx) - pred
        }
      }
      buf.toArray
    case RegressionPredictor =>
      val buf = ArrayBuffer.empty[Double]
      RegressionPredictor.foreachBlock(field.dims) { (lo, hi) =>
        val coeffs = RegressionPredictor.fitBlock(field, lo, hi).map(_.toFloat)
        RegressionPredictor.foreachPointInBlock(field.strides, lo, hi) { (idx, coords) =>
          var pred = coeffs(0).toDouble
          var d = 0
          while (d < lo.length) { pred += coeffs(d + 1).toDouble * (coords(d) - lo(d)); d += 1 }
          buf += field.data(idx) - pred
        }
      }
      buf.toArray
  }

  private val shapes: Seq[Array[Int]] = Seq(
    Array(1), Array(7), Array(1, 5), Array(5, 1, 3), Array(2, 1, 1, 4),
    Array(1, 1, 1, 1), Array(3, 4, 5, 6), Array(130, 3),
  )

  for (p <- Seq(InterpolationPredictor, RegressionPredictor); dims <- shapes) {
    val name = s"${p.name} ${dims.mkString("x")}"

    test(s"$name: full-scan errors equal the reference loop") {
      val f = mixedField(dims, 3L)
      assert(bits(Sampler.fullErrors(f, p)) == bits(referenceFullErrors(f, p)))
    }

    test(s"$name: a full-rate sample equals the reference loop") {
      val f = mixedField(dims, 4L)
      val expected = referenceFullErrors(f, p)
      // a field of anchors alone has no error to sample; the sampler keeps one 0.0
      val want = if (expected.isEmpty) Array(0.0) else expected
      assert(bits(Sampler.sample(f, p, rate = 1.0, seed = 5L).errors) == bits(want))
    }
  }
}
