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
    // the sampler cuts every patch to the same dims, so one stencil serves all
    var stencilDims: Array[Int] = null
    var stencil: LorenzoPredictor.Stencil = null
    var pi = 0
    while (pi < patches.length) {
      val patch = patches(pi)
      val dims = patch.dims
      val ndim = dims.length
      val dMid = dims.map(d => (d - 1) / 2.0).sum
      val recon = patch.data.clone()
      if (!java.util.Arrays.equals(dims, stencilDims)) { stencilDims = dims; stencil = codedStencil(dims) }
      val coords = new Array[Int](ndim)
      var pSqN = 0.0; var pNN = 0L; var pDN = 0.0
      var pSqF = 0.0; var pNF = 0L; var pDF = 0.0
      var idx = 0
      val n = recon.length
      while (idx < n) {
        var interior = true
        var d = 0
        while (d < ndim && interior) { if (coords(d) == 0 && dims(d) > 1) interior = false; d += 1 }
        if (interior) {
          val pred = stencil.predict(recon, idx)
          val v = patch.data(idx)
          val code = quant.code(pred, v)
          codes(nCoded) = code
          if (code == 0) zeros += 1
          val rv = if (code == Quantizer.Escape) v else quant.reconstruct(pred, code)
          recon(idx) = rv
          val e = rv - v
          sumSq += e * e
          nCoded += 1
          var dist = 0.0
          d = 0
          while (d < ndim) { dist += coords(d); d += 1 }
          if (dist <= dMid) { pSqN += e * e; pNN += 1; pDN += dist }
          else { pSqF += e * e; pNF += 1; pDF += dist }
        }
        d = ndim - 1
        var carry = true
        while (d >= 0 && carry) {
          coords(d) += 1
          if (coords(d) == dims(d)) { coords(d) = 0; d -= 1 } else carry = false
        }
        idx += 1
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

  /** The Lorenzo stencil at a coded point of a patch with these dims. Every
    * coded point has coordinate ≥ 1 along each dim of extent > 1 and 0 along
    * each dim of extent 1, so all share the boundary pattern of the extent-1
    * dims.
    */
  private def codedStencil(dims: Array[Int]): LorenzoPredictor.Stencil = {
    var unit = 0
    var d = 0
    while (d < dims.length) { if (dims(d) == 1) unit |= 1 << d; d += 1 }
    LorenzoPredictor.Stencils(dims)(unit)
  }
}
