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
    val interval = quant.interval
    val codes = new Array[Int](patches.iterator.map(p => codedPoints(p.dims)).sum)
    var sumSq = 0.0
    var nCoded = 0
    var zeros = 0
    val growths = new Array[Double](patches.length)
    // the sampler cuts every patch to the same dims, so one table serves all
    var rows: CodedRows = null
    var pi = 0
    while (pi < patches.length) {
      val patch = patches(pi)
      val dims = patch.dims
      val dMid = dims.map(d => (d - 1) / 2.0).sum
      val data = patch.data
      val recon = data.clone()
      if (rows == null || !java.util.Arrays.equals(dims, rows.dims)) rows = CodedRows(dims)
      val st = rows.stencil
      var pSqN = 0.0; var pNN = 0L; var pDN = 0.0
      var pSqF = 0.0; var pNF = 0L; var pDF = 0.0
      var r = 0
      while (r < rows.first.length) {
        var idx = rows.first(r)
        val end = idx + rows.count(r)
        var dist = rows.dist(r)
        // recon(idx − 1), carried along the row; read only when the stencil
        // has that term, which puts idx − 1 inside the patch
        var prev = if (st.readsPrev) recon(idx - 1) else 0.0
        while (idx < end) {
          val pred = st.predict(recon, idx, prev)
          val v = data(idx)
          val q = quant.quantize(pred, v)
          val escape = q.isNaN
          codes(nCoded) = if (escape) Quantizer.Escape else q.toInt
          if (q == 0.0) zeros += 1
          val rv = if (escape) v else pred + q * interval
          recon(idx) = rv
          prev = rv
          val e = rv - v
          sumSq += e * e
          nCoded += 1
          if (dist <= dMid) { pSqN += e * e; pNN += 1; pDN += dist }
          else { pSqF += e * e; pNF += 1; pDF += dist }
          idx += 1
          dist += 1
        }
        r += 1
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

  /** The coded rows of a patch with these dims, as [[foreachCodedRow]]
    * visits them: row `r` codes `count(r)` points from linear index
    * `first(r)`, the first `dist(r)` unit steps from the low corner. Every
    * coded point predicts with `stencil`.
    */
  private final class CodedRows(val dims: Array[Int], val first: Array[Int], val count: Array[Int],
                                val dist: Array[Int], val stencil: LorenzoPredictor.Stencil)

  private object CodedRows {
    def apply(dims: Array[Int]): CodedRows = {
      val first, count, dist = new scala.collection.mutable.ArrayBuilder.ofInt
      var stencil: LorenzoPredictor.Stencil = null
      foreachCodedRow(LorenzoPredictor.Stencils(dims)) { (f, c, d, st) =>
        first += f; count += c; dist += d; stencil = st
      }
      new CodedRows(dims, first.result(), count.result(), dist.result(), stencil)
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
    stencils.foreachRow { (start, len, head, body, coords) =>
      var halo = false
      var dist = 0
      var d = 0
      while (d < last) { if (coords(d) == 0 && dims(d) > 1) halo = true; dist += coords(d); d += 1 }
      if (!halo) {
        if (len > 1) f(start + 1, len - 1, dist + 1, body) else f(start, 1, dist, head)
      }
    }
  }
}
