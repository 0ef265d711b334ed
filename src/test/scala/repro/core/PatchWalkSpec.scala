package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.{LorenzoPredictor, Quantizer, QuantizerReference, RegressionPredictor}
import repro.compressor.LorenzoStencilSpec.{bits, foreachPoint, mixedField, stencilAt}
import repro.core.FieldSpec.FieldCoords
import repro.data.SciData

/** Pins the Lorenzo sampler and [[PatchSim]], which walk their patches row
  * by row, bit for bit against per-point reference loops: an odometer over
  * every point of a patch with a halo test at each. The shapes include
  * extent-1 dims, full 4-D patches (every extent > 1, EXAFEL's shape) and
  * fields smaller than one patch.
  */
class PatchWalkSpec extends AnyFunSuite {

  /** A point of a patch with these dims and local `coords` is halo when a
    * coordinate is 0 along a dim of extent > 1.
    */
  private def interior(coords: Array[Int], dims: Array[Int]): Boolean =
    coords.indices.forall(d => coords(d) > 0 || dims(d) == 1)

  /** The per-point Lorenzo sampler, kept as the reference definition: the
    * same patch draws, each point copied from the field, and the errors of
    * interior points predicted from the field with the field's stencils.
    * Returns the errors, the patch dims and the patches.
    */
  private def referenceSample(field: Field, rate: Double, seed: Long): (Array[Double], Array[Int], Array[Array[Double]]) = {
    val rnd = new java.util.Random(seed)
    val n = field.size
    val m = math.min(n, math.max(Sampler.MinSamples, (n * rate).toInt))
    val ndim = field.ndim
    val edge = RegressionPredictor.blockEdge(ndim)
    val ext = field.dims.map(d => math.min(d, edge + 1))
    val vol = math.max(1, ext.map(e => math.max(1, e - 1)).product)
    val k = math.max(4, (m + vol - 1) / vol)
    val errors = Array.newBuilder[Double]
    val stencils = LorenzoPredictor.Stencils(field.dims)
    val patches = Array.fill(k) {
      val lo = Array.tabulate(ndim)(d => rnd.nextInt(field.dims(d) - ext(d) + 1))
      val data = new Array[Double](ext.product)
      foreachPoint(ext) { (idx, coords) =>
        val gl = Array.tabulate(ndim)(d => lo(d) + coords(d))
        val gi = field.index(gl)
        data(idx) = field.data(gi)
        if (interior(coords, ext)) errors += field.data(gi) - stencilAt(stencils, gl).predict(field.data, gi)
      }
      data
    }
    (errors.result(), ext, patches)
  }

  /** The per-point patch simulation, kept as the reference definition: each
    * patch replayed in a clone of its own values.
    */
  private def referenceSimulate(dims: Array[Int], patches: Array[Array[Double]], eb: Double): PatchSim.Result = {
    val quant = new Quantizer(eb)
    val codes = Array.newBuilder[Int]
    var sumSq = 0.0
    var nCoded = 0
    val dMid = dims.map(d => (d - 1) / 2.0).sum
    // every coded point has the boundary pattern of the extent-1 dims
    val stencil = stencilAt(LorenzoPredictor.Stencils(dims), dims.map(d => if (d == 1) 0 else 1))
    val growths = patches.map { patch =>
      val recon = patch.clone()
      var pSqN = 0.0; var pNN = 0L; var pDN = 0.0
      var pSqF = 0.0; var pNF = 0L; var pDF = 0.0
      foreachPoint(dims) { (idx, coords) =>
        if (interior(coords, dims)) {
          val pred = stencil.predict(recon, idx)
          val v = patch(idx)
          val code = QuantizerReference.code(quant, pred, v)
          codes += code
          val rv = if (code == Quantizer.Escape) v else quant.reconstruct(pred, code)
          recon(idx) = rv
          val e = rv - v
          sumSq += e * e
          nCoded += 1
          var dist = 0.0
          coords.foreach(dist += _)
          if (dist <= dMid) { pSqN += e * e; pNN += 1; pDN += dist }
          else { pSqF += e * e; pNF += 1; pDF += dist }
        }
      }
      val pDelta = (if (pNF > 0) pDF / pNF else 0.0) - (if (pNN > 0) pDN / pNN else 0.0)
      if (pDelta > 0 && pNN > 0 && pNF > 0) math.max(0.0, (pSqF / pNF - pSqN / pNN) / pDelta) else 0.0
    }
    java.util.Arrays.sort(growths)
    PatchSim.Result(codes.result(), sumSq / nCoded, growths(growths.length / 2))
  }

  /** Equal codes, zero codes included, and the same bits of errVariance and
    * medianGrowth.
    */
  private def sameResult(got: PatchSim.Result, want: PatchSim.Result): Unit = {
    assert(got.codes.toSeq == want.codes.toSeq)
    assert(bits(Array(got.errVariance, got.medianGrowth)) == bits(Array(want.errVariance, want.medianGrowth)))
  }

  private def simulate(s: PredictionErrorSample, eb: Double): PatchSim.Result =
    PatchSim.simulate(s.patchShape.get, s.patches, eb)

  private val shapes: Seq[Array[Int]] = Seq(
    Array(1, 40, 40), Array(40, 1), Array(5, 1, 3), Array(3, 3), Array(7), Array(2, 1, 1, 4),
    Array(1, 1, 1, 1), Array(130, 3), Array(1), Array(9, 1, 30, 1), Array(300), Array(20, 20, 20),
    Array(6, 6, 6, 6),
  )

  /** Absolute bounds on [[mixedField]] data, whose values reach 1e12: escapes
    * at the first, a mix of zero and non-zero codes at the second, only
    * zero codes at the third.
    */
  private val ebs = Seq(1e-6, 1.0, 1e15)

  for (dims <- shapes; seed <- Seq(0L, 42L)) {
    val name = s"${dims.mkString("x")} seed $seed"

    test(s"lorenzo sampler $name: errors and patches equal the per-point reference") {
      val f = mixedField(dims, seed)
      val (errors, ext, patches) = referenceSample(f, Sampler.DefaultRate, seed)
      val s = Sampler.lorenzo(f, Sampler.DefaultRate, seed)
      assert(bits(s.errors) == bits(errors))
      assert(s.patchShape.get.dims.toSeq == ext.toSeq)
      assert(s.patches.length == patches.length)
      s.patches.zip(patches).foreach { case (got, want) => assert(bits(got) == bits(want)) }
    }

    for (eb <- ebs) {
      test(s"PatchSim $name eb $eb: codes, zeros, errVariance and medianGrowth equal the per-point reference") {
        val s = Sampler.lorenzo(mixedField(dims, seed), Sampler.DefaultRate, seed)
        sameResult(simulate(s, eb), referenceSimulate(s.patchShape.get.dims, s.patches, eb))
      }
    }
  }

  test("the bounds above reach escapes, mixed codes and all-zero codes") {
    val s = Sampler.lorenzo(mixedField(Array(20, 20, 20), 0L), Sampler.DefaultRate, 0L)
    val Seq(fine, mid, coarse) = ebs.map(simulate(s, _))
    assert(fine.codes.contains(Quantizer.Escape))
    assert(mid.codes.contains(0) && mid.codes.exists(c => c != 0 && c != Quantizer.Escape))
    assert(coarse.codes.forall(_ == 0))
  }

  test("after warm-up, a replay allocates less than one copy of its patches") {
    val s = Sampler.lorenzo(SciData.byId("RTM", "2000").generate(test = true), Sampler.DefaultRate, 42L)
    val shape = s.patchShape.get
    assert(shape.dims.length == 3)
    val copies = s.patches.length.toLong * shape.volume * 8
    val bean = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val thread = Thread.currentThread.getId
    (1 to 2000).foreach(i => simulate(s, 1e-3 * i))
    // the least of a few single calls, so a stray allocation between them cannot fail the pin
    val allocated = (1 to 5).map { _ =>
      val before = bean.getThreadAllocatedBytes(thread)
      simulate(s, 0.5)
      bean.getThreadAllocatedBytes(thread) - before
    }.min
    assert(allocated < copies, s"$allocated bytes allocated; one copy of the ${s.patches.length} patches is $copies")
  }
}
