package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.{InterpolationPredictor, InterpolationTraversalSpec, Predictor, PredictorOutput, Quantizer, QuantizerReference, RegressionPredictor, RegressionReference}
import repro.compressor.LorenzoStencilSpec.{bits, mixedField}
import repro.data.SciData
import scala.collection.mutable.ArrayBuffer

/** Pins the interpolation and regression prediction kernels that the
  * sampler and the full scan share with the compressor, bit for bit, against
  * the boxed per-point loops that wrote each prediction out inline. The
  * compressors themselves are pinned too: interpolation's line walk against
  * the per-point traversal, regression's row walk against
  * [[RegressionReference]]'s per-point odometer.
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
    case RegressionPredictor => RegressionReference.fullErrors(field)
  }

  private val shapes: Seq[Array[Int]] = Seq(
    Array(1), Array(7), Array(1, 5), Array(5, 1, 3), Array(2, 1, 1, 4),
    Array(1, 1, 1, 1), Array(3, 4, 5, 6), Array(130, 3),
  )

  /** Shapes whose last block along some dim is partial, at every dimensionality. */
  private val partialBlockShapes: Seq[Array[Int]] = Seq(Array(300), Array(13, 25), Array(7, 7, 7), Array(9, 1, 30, 1))

  private val cases = Seq(InterpolationPredictor, RegressionPredictor).flatMap(p => shapes.map(p -> _)) ++
    partialBlockShapes.map(RegressionPredictor -> _)

  for ((p, dims) <- cases) {
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

  /** On the mixed fields about 45 % of the points escape at this bound (the
    * ~1e12 outliers and the blocks their fits pull away); the rest code,
    * most of them nonzero.
    */
  private val escapingQuant = new Quantizer(1e6)

  /** A hyperplane whose slopes alternate between 1 and ~1e-15 along the
    * dims, so that a prediction's terms span the whole double precision and
    * its partial sums cross binades: summed in another order, they round
    * differently.
    */
  private def ulpField(dims: Array[Int], seed: Long): Field = {
    val rnd = new java.util.Random(seed)
    val strides = Field.strides(dims)
    FieldSpec.tabulate(dims) { i =>
      var v = 0.0
      for (d <- dims.indices) v += (if (d % 2 == 0) 1.0 else 1.37e-15) * (i / strides(d) % dims(d))
      v + rnd.nextGaussian() * 1e-16
    }
  }

  for (dims <- shapes ++ partialBlockShapes) {
    test(s"regression ${dims.mkString("x")}: fits, compress and decompress equal the reference loop") {
      for (f <- Seq(mixedField(dims, 6L), ulpField(dims, 7L))) {
        RegressionReference.foreachBlock(dims) { (lo, hi) =>
          assert(bits(RegressionPredictor.fitBlock(f, lo, hi)) == bits(RegressionReference.fitBlock(f, lo, hi)))
        }
        assertMatchesReference(RegressionPredictor, f, escapingQuant)
      }
    }
  }

  test("regression: the compress bound yields both escapes and in-range codes") {
    val codes = (shapes ++ partialBlockShapes).flatMap(d => RegressionReference.compress(mixedField(d, 6L), escapingQuant).codes)
    assert(codes.count(_ == Quantizer.Escape) > 500)
    assert(codes.count(c => c != Quantizer.Escape && c != 0) > 500)
  }

  /** [[InterpolationPredictor.compress]] point by point, kept as the
    * reference definition: the per-point traversal, each midpoint predicted
    * from the reconstruction and coded by [[QuantizerReference.code]], each anchor
    * stored verbatim in the side channel.
    */
  private def referenceInterpolation(f: Field, quant: Quantizer): PredictorOutput = {
    val codes = ArrayBuffer.empty[Int]
    val unpred = ArrayBuffer.empty[Double]
    val anchors = ArrayBuffer.empty[Double]
    val recon = new Array[Double](f.size)
    InterpolationTraversalSpec.referenceTraverse(f.dims).foreach { case (idx, isAnchor, p1, p2) =>
      val v = f.data(idx)
      if (isAnchor) { anchors += v; recon(idx) = v }
      else {
        val pred = if (p2 >= 0) 0.5 * (recon(p1) + recon(p2)) else recon(p1)
        val code = QuantizerReference.code(quant, pred, v)
        codes += code
        if (code == Quantizer.Escape) { unpred += v; recon(idx) = v }
        else recon(idx) = quant.reconstruct(pred, code)
      }
    }
    val side = java.nio.ByteBuffer.allocate(anchors.length * 8)
    anchors.foreach(side.putDouble)
    PredictorOutput(codes.toArray, unpred.toArray, side.array(), Field(recon, f.dims))
  }

  /** A sine with unit noise: at [[nonzeroQuant]] most of its codes are
    * nonzero and in range, where the mixed fields escape or code 0.
    */
  private def noisyField(dims: Array[Int], seed: Long): Field = {
    val rnd = new java.util.Random(seed)
    FieldSpec.tabulate(dims)(i => math.sin(i * 0.3) * 50 + rnd.nextGaussian())
  }

  private val nonzeroQuant = new Quantizer(1e-2)

  /** Interpolation shapes with several levels and a second anchor along a dim. */
  private val interpShapes: Seq[Array[Int]] = shapes ++ Seq(Array(129), Array(65, 65, 2))

  private val interpInputs: Seq[(String, (Array[Int], Long) => Field, Quantizer)] =
    Seq(("mixed", mixedField, escapingQuant), ("noisy", noisyField, nonzeroQuant))

  for (dims <- interpShapes; (what, field, quant) <- interpInputs) {
    test(s"interp ${dims.mkString("x")} $what eb ${quant.eb}: compress and decompress equal the reference loop") {
      assertMatchesReference(InterpolationPredictor, field(dims, 8L), quant)
    }
  }

  /** The 17 registry fields at their test dims, each at REL 1e-2, 1e-3 and
    * 1e-4 (eb = rel · value range, as the codec golden file takes it): the
    * compressor's own inputs, where the per-point comparison names the
    * first differing point that a golden hash only flags.
    */
  private lazy val registryFields: Map[String, Field] = SciData.fields.map(s => s.id -> s.generate(test = true)).toMap

  for (spec <- SciData.fields; rel <- Seq(1e-2, 1e-3, 1e-4); p <- Seq(InterpolationPredictor, RegressionPredictor)) {
    test(s"${p.name} ${spec.id} REL $rel: compress and decompress equal the reference loop") {
      val f = registryFields(spec.id)
      assertMatchesReference(p, f, new Quantizer(rel * f.valueRange))
    }
  }

  /** `p`'s compress of `f` equals its per-point reference (codes, side
    * bytes, escapes, reconstruction bits), and its decompress of the
    * reference output rebuilds the reference reconstruction. A mismatch
    * names the first differing position.
    */
  private def assertMatchesReference(p: Predictor, f: Field, quant: Quantizer): Unit = {
    val want = p match {
      case InterpolationPredictor => referenceInterpolation(f, quant)
      case RegressionPredictor    => RegressionReference.compress(f, quant)
    }
    val got = p.compress(f, quant)
    assertSame("codes", got.codes.toSeq, want.codes.toSeq)
    assertSame("side bytes", got.side.toSeq, want.side.toSeq)
    assertSame("unpredictables", bits(got.unpredictable), bits(want.unpredictable))
    assertSame("reconstruction", bits(got.recon.data), bits(want.recon.data))
    val back = p.decompress(f.dims, quant, want.codes, want.unpredictable, want.side)
    assertSame("decompressed", bits(back.data), bits(want.recon.data))
  }

  private def assertSame[A](what: String, got: Seq[A], want: Seq[A]): Unit =
    if (got != want) {
      val at = got.indices.find(i => i >= want.length || got(i) != want(i)).getOrElse(got.length)
      fail(s"$what: ${got.length} vs ${want.length} entries, first difference at $at: " +
        s"${got.lift(at).getOrElse("none")} vs reference ${want.lift(at).getOrElse("none")}")
    }

  test("interp: the mixed fields yield escapes and in-range codes, the noisy ones mostly nonzero codes") {
    def codes(field: (Array[Int], Long) => Field, quant: Quantizer) =
      interpShapes.flatMap(d => referenceInterpolation(field(d, 8L), quant).codes)
    val mixed = codes(mixedField, escapingQuant)
    val noisy = codes(noisyField, nonzeroQuant)
    def inRange(c: Int) = c != Quantizer.Escape && c != 0
    assert(mixed.count(_ == Quantizer.Escape) > 500)
    assert(mixed.count(c => c != Quantizer.Escape) > 500)
    assert(noisy.count(inRange) > noisy.length / 2, s"${noisy.count(inRange)} of ${noisy.length}")
  }
}
