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

  /** The shape every patch of a Lorenzo sample shares, and its coded-row
    * table: the one list of a patch's coded points, which the sampler's
    * error pass and every [[simulate]] loop over.
    *
    * Halo points (local coordinate 0 along a dim of extent > 1) are not
    * coded; the coded points fill the box from `lo` (1 along each dim of
    * extent > 1, 0 along the others) to `dims`. Row `r` of that box codes
    * [[rowLength]] points from linear index `first(r)`, the first `dist(r)`
    * unit steps from the patch's low corner (the sum of its coordinates),
    * each later one a step further. Every coded point has the boundary
    * pattern of the extent-1 dims, so all predict with one [[stencil]].
    */
  final class Shape(val dims: Array[Int]) extends Serializable {
    private[this] val lo = dims.map(d => if (d > 1) 1 else 0)

    /** Points of a patch, halo included. */
    val volume: Int = dims.product

    /** Coded points of a patch: all but the halo. */
    val coded: Int = dims.indices.map(d => dims(d) - lo(d)).product

    /** Coded points of a row. */
    val rowLength: Int = dims.last - lo.last

    /** The coordinate sum of the patch's centre: the drift fit splits the
      * coded points into a near and a far half at it.
      */
    val dMid: Double = dims.map(d => (d - 1) / 2.0).sum

    val first, dist = new Array[Int](coded / rowLength)

    locally {
      var r = 0
      Field.foreachRow(Field.strides(dims), lo, dims, Array.fill(dims.length)(1)) { (start, _, coords) =>
        first(r) = start
        dist(r) = coords.sum
        r += 1
      }
    }

    /** The stencil of every coded point; rebuilt from `dims` after
      * deserialization.
      */
    @transient lazy val stencil: LorenzoPredictor.Stencil =
      LorenzoPredictor.Stencil(dims.indices.map(d => (1 - lo(d)) << d).sum, Field.strides(dims))
  }

  /** @param codes        simulated quantization codes, patch after patch
    * @param errVariance  mean squared reconstruction error across patches
    * @param medianGrowth per-step growth of the drift variance (0 when errors
    *                     are stationary inside the patch — the noise/denoising
    *                     regime): the median across patches, so a few
    *                     heterogeneous patches (a dense cosmology blob, a
    *                     detector peak) cannot fake field-wide drift
    */
  final case class Result(codes: Array[Int], errVariance: Double, medianGrowth: Double)

  /** Simulate the Lorenzo pipeline over `patches`, each of `shape`, at error
    * bound `eb`. One patch-sized recon buffer serves every patch: each
    * patch's values re-seed it, so its halo holds original values.
    */
  def simulate(shape: Shape, patches: Array[Array[Double]], eb: Double): Result = {
    require(patches.nonEmpty, "no patches to simulate")
    val quant = new Quantizer(eb)
    val interval = quant.interval
    val codes = new Array[Int](patches.length * shape.coded)
    val recon = new Array[Double](shape.volume)
    val first = shape.first
    val dist0 = shape.dist
    val rowLength = shape.rowLength
    val dMid = shape.dMid
    val st = shape.stencil
    var sumSq = 0.0
    var c = 0
    val growths = new Array[Double](patches.length)
    var pi = 0
    while (pi < patches.length) {
      val data = patches(pi)
      System.arraycopy(data, 0, recon, 0, recon.length)
      var pSqN = 0.0; var pNN = 0L; var pDN = 0.0
      var pSqF = 0.0; var pNF = 0L; var pDF = 0.0
      var r = 0
      while (r < first.length) {
        var idx = first(r)
        val end = idx + rowLength
        var dist = dist0(r)
        // recon(idx − 1), carried along the row; read only when the stencil
        // has that term, which puts idx − 1 inside the patch
        var prev = if (st.readsPrev) recon(idx - 1) else 0.0
        while (idx < end) {
          val pred = st.predict(recon, idx, prev)
          val v = data(idx)
          val q = quant.quantize(pred, v)
          val escape = q.isNaN
          codes(c) = if (escape) Quantizer.Escape else q.toInt
          val rv = if (escape) v else pred + q * interval
          recon(idx) = rv
          prev = rv
          val e = rv - v
          sumSq += e * e
          c += 1
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
    java.util.Arrays.sort(growths)
    Result(codes, sumSq / codes.length, growths(growths.length / 2))
  }
}
