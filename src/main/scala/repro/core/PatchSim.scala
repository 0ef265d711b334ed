package repro.core

import repro.compressor.{LorenzoPredictor, Quantizer}

/** Patch-local compression simulation (the refined correction layer of
  * §III-D4, in the shape of SZ3's own block sampler §V-D).
  *
  * For each sampled patch the quantizer is replayed exactly as the real
  * compressor would run it — predicting from the *reconstructed* buffer —
  * so reconstruction-feedback effects (drift at high error bounds,
  * denoising of sub-bound noise) appear in the quantization-code histogram
  * and the compression-error distribution without any analytic correction.
  * Cost per estimate stays O(|sample|): no Huffman build, no full-field
  * pass — the gap to trial-and-error (Fig. 9) is preserved.
  */
object PatchSim {

  /** @param codes        simulated quantization codes, patch after patch
    * @param zeros        how many of them are 0
    * @param errVariance  mean squared reconstruction error across patches
    * @param medianGrowth per-step growth of the drift variance (0 when errors
    *                     are stationary inside the patch — the noise/denoising
    *                     regime): the median across patches, so a few
    *                     heterogeneous patches (a dense cosmology blob, a
    *                     detector peak) cannot fake field-wide drift
    */
  final case class Result(codes: Array[Int], zeros: Int, errVariance: Double, medianGrowth: Double) {

    /** Fraction of non-central codes observed in the simulation. */
    def nonZeroRate: Double = 1.0 - zeros.toDouble / codes.length
  }

  /** Simulate the Lorenzo pipeline over the patches at error bound `eb`.
    * Halo points (local coordinate 0 in any dim of extent > 1) seed the
    * recon buffer with original values and are not coded.
    */
  def simulate(patches: Array[SamplePatch], eb: Double): Result = {
    require(patches.nonEmpty, "no patches to simulate")
    val quant = new Quantizer(eb)
    val codes = new Array[Int](patches.iterator.map(p => codedPoints(p.dims)).sum)
    var sumSq = 0.0
    var nCoded = 0
    var zeros = 0
    val growths = new Array[Double](patches.length)
    // the sampler cuts every patch to the same dims, so one table serves all
    var stencils: LorenzoPredictor.Stencils = null
    var pi = 0
    while (pi < patches.length) {
      val patch = patches(pi)
      val dims = patch.dims
      val dMid = dims.map(d => (d - 1) / 2.0).sum
      val data = patch.data
      val recon = data.clone()
      if (stencils == null || !java.util.Arrays.equals(dims, stencils.dims)) stencils = LorenzoPredictor.Stencils(dims)
      var pSqN = 0.0; var pNN = 0L; var pDN = 0.0
      var pSqF = 0.0; var pNF = 0L; var pDF = 0.0
      foreachCodedRow(stencils) { (first, count, dist0, st) =>
        var idx = first
        var dist = dist0
        while (idx < first + count) {
          val pred = st.predict(recon, idx)
          val v = data(idx)
          val code = quant.code(pred, v)
          codes(nCoded) = code
          if (code == 0) zeros += 1
          val rv = if (code == Quantizer.Escape) v else quant.reconstruct(pred, code)
          recon(idx) = rv
          val e = rv - v
          sumSq += e * e
          nCoded += 1
          if (dist <= dMid) { pSqN += e * e; pNN += 1; pDN += dist }
          else { pSqF += e * e; pNF += 1; pDF += dist }
          idx += 1
          dist += 1
        }
      }
      val pDelta = (if (pNF > 0) pDF / pNF else 0.0) - (if (pNN > 0) pDN / pNN else 0.0)
      growths(pi) =
        if (pDelta > 0 && pNN > 0 && pNF > 0) math.max(0.0, (pSqF / pNF - pSqN / pNN) / pDelta)
        else 0.0
      pi += 1
    }
    if (nCoded == 0) Result(Array(0), 1, 0.0, 0.0)
    else {
      java.util.Arrays.sort(growths)
      Result(codes, zeros, sumSq / nCoded, growths(growths.length / 2))
    }
  }

  /** Points of a patch that are coded: all but the halo. */
  private def codedPoints(dims: Array[Int]): Int = dims.map(d => if (d > 1) d - 1 else 1).product

  /** The callback of [[foreachCodedRow]]: `count` coded points at linear
    * indices `first`, `first + 1`, …, each predicting with `stencil`; the
    * first lies `dist` unit steps from the patch's low corner (the sum of its
    * coordinates), each later one a step further.
    */
  private[core] abstract class CodedRowVisitor {
    def apply(first: Int, count: Int, dist: Int, stencil: LorenzoPredictor.Stencil): Unit
  }

  /** Visit the coded points of a patch with the dims of `stencils`, row by
    * row in row-major order: rows at coordinate 0 along an outer dim of
    * extent > 1 are halo, and so is the first point of each row when the
    * last extent is > 1. Every coded point has coordinate ≥ 1 along each dim
    * of extent > 1 and 0 along each dim of extent 1, so all share one
    * boundary pattern, and a row's body stencil (its head one, in a row of
    * one point) is the stencil of all its coded points.
    */
  private[core] def foreachCodedRow(stencils: LorenzoPredictor.Stencils)(f: CodedRowVisitor): Unit = {
    val dims = stencils.dims
    val last = dims.length - 1
    stencils.foreachRow { (start, len, head, body, outer) =>
      var halo = false
      var dist = 0
      var d = 0
      while (d < last) { if (outer(d) == 0 && dims(d) > 1) halo = true; dist += outer(d); d += 1 }
      if (!halo) {
        if (len > 1) f(start + 1, len - 1, dist + 1, body) else f(start, 1, dist, head)
      }
    }
  }
}
