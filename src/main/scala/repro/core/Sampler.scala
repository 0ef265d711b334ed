package repro.core

import repro.compressor.{InterpolationPredictor, LorenzoPredictor, Predictor, RegressionPredictor}

/** A sampled patch: a small block of original values with a one-layer halo on
  * the low side of every dimension (the halo seeds the recon buffer, so a
  * patch-local compression simulation sees realistic borders).
  */
final case class SamplePatch(data: Array[Double], dims: Array[Int])

/** A 1 % (configurable) sample of prediction errors plus the field summary
  * statistics the ratio-quality model needs. Produced once per
  * (field, predictor); every estimate for any error bound derives from it
  * (§III-D: "one-time sampling and efficient estimation").
  *
  * @param predictor   predictor name the errors correspond to
  * @param errors      sampled prediction errors (actual − predicted, on
  *                    original values, per §III-D4)
  * @param totalPoints points in the full field
  * @param range       value range of the full field (max − min)
  * @param variance    variance of the full field (for the SSIM model)
  * @param patches     Lorenzo only: the sampled blocks with their low-side
  *                    halo, which [[PatchSim]] replays per error bound;
  *                    empty for the other predictors, whose estimates take
  *                    the analytic path
  */
final case class PredictionErrorSample(
    predictor: String,
    errors: Array[Double],
    totalPoints: Int,
    range: Double,
    variance: Double,
    patches: Array[SamplePatch] = Array.empty,
) {
  require(errors.nonEmpty, "empty prediction-error sample")

  /** Error magnitudes below which the fractions `ps` of points fall, in
    * the order given: for each p, the |error| of rank ⌊p·n⌋ (clamped to the
    * sample) in ascending `java.lang.Double.compare` order, NaN last, as a
    * sorted copy would give it (the central bin half-width that yields
    * p0 = p, §III-C1's anchor profiling).
    *
    * One copy of |errors|, then one Floyd–Rivest selection per distinct
    * rank in ascending order, each on the part of the copy right of the
    * previous rank: O(n) per call instead of a sort's O(n log n).
    */
  def absQuantiles(ps: Seq[Double]): Array[Double] = {
    val a = new Array[Double](errors.length)
    var i = 0
    while (i < a.length) { a(i) = math.abs(errors(i)); i += 1 }
    val ranks = ps.map(p => math.min(a.length - 1, math.max(0, (p * a.length).toInt)))
    var from = 0
    ranks.distinct.sorted.foreach { k =>
      PredictionErrorSample.select(a, from, a.length - 1, k)
      from = k + 1
    }
    ranks.map(a(_)).toArray
  }

  /** Std-dev of the sampled prediction errors (sampling-accuracy metric of
    * Fig. 4 / Table II "Sample Err" compares this against the full scan).
    */
  def errorStd: Double = PredictionErrorSample.std(errors)
}

object PredictionErrorSample {

  /** Floyd & Rivest's SELECT (1975): permutes a(left..right) so that a(k)
    * holds the value of rank k in `java.lang.Double.compare` order, with no
    * greater value before it and no smaller one after it. Ranges longer than
    * 600 first select k within a sample-sized window around its expected
    * place, which leaves a near-perfect pivot at k.
    */
  private[core] def select(a: Array[Double], left0: Int, right0: Int, k: Int): Unit = {
    var left = left0
    var right = right0
    while (right > left) {
      if (right - left > 600) {
        val n = right - left + 1
        val i = k - left + 1
        val z = math.log(n)
        val s = 0.5 * math.exp(2 * z / 3)
        val sd = 0.5 * math.sqrt(z * s * (n - s) / n) * math.signum(i - n / 2.0)
        val newLeft = math.max(left, (k - i * s / n + sd).toInt)
        val newRight = math.min(right, (k + (n - i) * s / n + sd).toInt)
        select(a, newLeft, newRight, k)
      }
      val t = a(k)
      var i = left
      var j = right
      swap(a, left, k)
      if (java.lang.Double.compare(a(right), t) > 0) swap(a, right, left)
      while (i < j) {
        swap(a, i, j)
        i += 1
        j -= 1
        while (java.lang.Double.compare(a(i), t) < 0) i += 1
        while (java.lang.Double.compare(a(j), t) > 0) j -= 1
      }
      if (java.lang.Double.compare(a(left), t) == 0) swap(a, left, j)
      else { j += 1; swap(a, j, right) }
      if (j <= k) left = j + 1
      if (k <= j) right = j - 1
    }
  }

  private def swap(a: Array[Double], i: Int, j: Int): Unit = {
    val t = a(i); a(i) = a(j); a(j) = t
  }

  /** Population standard deviation of `a`, 0 for an empty array. */
  def std(a: Array[Double]): Double = {
    if (a.isEmpty) return 0.0
    var mu = 0.0
    var i = 0
    while (i < a.length) { mu += a(i); i += 1 }
    mu /= a.length
    var s = 0.0
    i = 0
    while (i < a.length) { val d = a(i) - mu; s += d * d; i += 1 }
    math.sqrt(s / a.length)
  }
}

/** Per-predictor sampling strategies (§III-D). All predict from *original*
  * values — the paper's observation III-D4 is that the error distribution
  * differs little from the reconstruction-based one, and the high-error-bound
  * discrepancy is handled by the Eq. 9 correction layer.
  */
object Sampler {

  val DefaultRate = 0.01

  def sample(field: Field, predictor: Predictor, rate: Double = DefaultRate, seed: Long = 42L): PredictionErrorSample =
    predictor match {
      case LorenzoPredictor       => lorenzo(field, rate, seed)
      case InterpolationPredictor => interpolation(field, rate, seed)
      case RegressionPredictor    => regression(field, rate, seed)
      case p                      => throw new IllegalArgumentException(s"no sampling strategy for ${p.name}")
    }

  /** Minimum sample count: below this the plug-in entropy estimate is too
    * biased even with the Miller–Madow correction. Small fields simply get a
    * higher effective rate.
    */
  val MinSamples = 1024

  /** Lorenzo: random structured blocks (SZ3-style, §III-D1). The per-point
    * prediction errors on original values feed the Fig. 4 sampling-accuracy
    * metric and the anchor quantiles; the raw patches (with a low-side halo)
    * let the model simulate the quantizer with reconstruction feedback per
    * error bound (§III-D4) instead of guessing the feedback analytically.
    * A patch's edge is big enough that patch-local reconstruction feedback
    * (drift, denoising) shows, small enough that ~1 % sampling still yields
    * tens of patches.
    */
  def lorenzo(field: Field, rate: Double, seed: Long): PredictionErrorSample = {
    val rnd = new java.util.Random(seed)
    val n = field.size
    val m = math.min(n, math.max(MinSamples, (n * rate).toInt))
    val ndim = field.ndim
    // a patch spans a regression block (~200 points at any dimensionality): one table sizes both
    val edge = RegressionPredictor.blockEdge(ndim)
    // patch extent including the low-side halo, clamped to the field extent
    val ext = field.dims.map(d => math.min(d, edge + 1))
    val vol = math.max(1, ext.map(e => math.max(1, e - 1)).product)
    val k = math.max(4, (m + vol - 1) / vol)
    val errors = new scala.collection.mutable.ArrayBuilder.ofDouble
    val patches = new Array[SamplePatch](k)
    // every patch has the same dims, so one stencil table serves them all
    val stencils = LorenzoPredictor.Stencils(ext)
    val unit = Array.fill(ndim)(1)
    var p = 0
    while (p < k) {
      val lo = Array.tabulate(ndim)(d => rnd.nextInt(field.dims(d) - ext(d) + 1))
      val data = new Array[Double](ext.product)
      // the patch is the field box [lo, lo + ext), copied row by row
      var to = 0
      Field.foreachRow(field.strides, lo, Array.tabulate(ndim)(d => lo(d) + ext(d)), unit) { (from, len, _) =>
        System.arraycopy(field.data, from, data, to, len)
        to += len
      }
      // a coded point's patch-local stencil reaches the same neighbours, in
      // the same order, as its field stencil, so the errors are the field's
      PatchSim.foreachCodedRow(stencils) { (first, count, _, st) =>
        var idx = first
        while (idx < first + count) { errors += data(idx) - st.predict(data, idx); idx += 1 }
      }
      patches(p) = SamplePatch(data, ext.clone())
      p += 1
    }
    PredictionErrorSample(LorenzoPredictor.name, errors.result(), field.size,
      field.valueRange, field.variance, patches)
  }

  /** Interpolation: walk the level/dim traversal and accept each non-anchor
    * point with probability `rate`; because level populations shrink by 2^-n
    * per level, this realizes the paper's per-level sampling-rate scaling
    * (§III-D2) while staying deterministic.
    *
    * Vitter's skip sampling (1984): instead of one uniform draw per point,
    * one draw per accepted point gives the number of points to pass over,
    * a geometric variate ⌊ln(1−U)/ln(1−rate)⌋ ([[gap]]), carried across
    * lines. The accepted set has the same i.i.d. Bernoulli(rate) law, and
    * the pass costs O(lines + samples) instead of O(points). At a rate of 1
    * every gap is 0, so every non-anchor point is taken.
    *
    * The skip loop reads no data: it queues each accepted point in a
    * [[GatherQueue]], which computes the errors a batch at a time.
    */
  def interpolation(field: Field, rate: Double, seed: Long): PredictionErrorSample = {
    val rnd = new Lcg(seed)
    val effRate = math.min(1.0, math.max(rate, MinSamples.toDouble / field.size))
    val logKeep = math.log1p(-effRate) // −∞ at a rate of 1
    val queue = new GatherQueue(field.data)
    var skip = gap(rnd.nextDouble(), logKeep) // non-anchor points still to pass over before the next sample
    InterpolationPredictor.traverse(field.dims) { (first, step, count, back, right) =>
      if (back > 0) {
        var k = skip
        while (k < count) {
          val i = k.toInt
          queue.add(first + i * step, if (i < right) back else -back)
          k += 1 + gap(rnd.nextDouble(), logKeep)
        }
        skip = k - count
      }
    }
    val errors = queue.result()
    PredictionErrorSample(InterpolationPredictor.name, if (errors.isEmpty) Array(0.0) else errors,
      field.size, field.valueRange, field.variance)
  }

  /** Sampled interpolation points in visiting order, as (index, signed
    * neighbour offset): a negative offset −back marks a point with no right
    * neighbour. The queue holds [[GatherBatch]] points; when it is full,
    * and in [[result]], one tight loop turns the batch into errors through
    * [[InterpolationPredictor.predict]]. The skip loop's next index waits
    * on its last draw, so loads made inside it miss the cache one after
    * another; the batch's loads are independent, so their misses overlap.
    */
  private final class GatherQueue(data: Array[Double]) {
    private[this] val idxs = new Array[Int](GatherBatch)
    private[this] val backs = new Array[Int](GatherBatch)
    private[this] var n = 0
    private[this] val errors = new scala.collection.mutable.ArrayBuilder.ofDouble

    def add(idx: Int, signedBack: Int): Unit = {
      if (n == GatherBatch) flush()
      idxs(n) = idx
      backs(n) = signedBack
      n += 1
    }

    private def flush(): Unit = {
      var j = 0
      while (j < n) {
        val idx = idxs(j)
        val b = backs(j)
        errors += data(idx) - InterpolationPredictor.predict(data, idx, math.abs(b), b > 0)
        j += 1
      }
      n = 0
    }

    /** The errors of every point added, in the order added. */
    def result(): Array[Double] = { flush(); errors.result() }
  }

  /** Points per gather: a bounded batch keeps the queue's footprint fixed. */
  private final val GatherBatch = 256

  /** The skip-sampling gap ⌊ln(1−u)/logKeep⌋ for a uniform draw u in
    * [0, 1) and logKeep = ln(1−rate) < 0 (−∞ at a rate of 1): the integer
    * [[exactGap]] gives, via the intrinsic `math.log(1.0 - u)` instead of
    * `math.log1p(-u)`, or −1 when that quotient is too close to an integer
    * to tell.
    *
    * Error bound, with ε = 2^-53 and t = ln(1−u)/logKeep exactly: `1.0 - u`
    * is exact for u ≥ 1/2 and otherwise rounds by at most ε/2 in (1/2, 1],
    * which moves its logarithm by at most 2ε absolutely; `math.log` and
    * `math.log1p` are within 1 ulp (2ε relatively) and each division rounds
    * by ε relatively. So the fast quotient q lies within
    * 3ε·|q| + 2ε/|logKeep| of t, the exact one within 3ε·|t| of t, and the
    * two within 6ε·|q| + 2ε/|logKeep| of each other, up to terms in ε².
    * [[GapTolerance]] · (|q| + 1/|logKeep|) exceeds that bound twentyfold:
    * when q is farther than it from every integer, no integer lies between
    * q and the exact quotient, and both truncate to the same gap. At a rate
    * of 1 both quotients are exactly 0 and so is the tolerance.
    */
  private[core] def fastGap(u: Double, logKeep: Double): Long = {
    val q = math.log(1.0 - u) / logKeep
    val frac = q - math.floor(q)
    val tol = GapTolerance * (q - 1.0 / logKeep)
    if (frac < tol || 1.0 - frac < tol) -1L else q.toLong
  }

  /** 2^-46 = 128ε: the relative tolerance of [[fastGap]]. */
  private val GapTolerance = 1.0 / (1L << 46)

  /** The skip-sampling gap as first defined: ⌊log1p(−u)/logKeep⌋. */
  private[core] def exactGap(u: Double, logKeep: Double): Long = (math.log1p(-u) / logKeep).toLong

  /** [[fastGap]], or [[exactGap]] where the fast quotient is too close to
    * an integer: always the integer [[exactGap]] gives.
    */
  private[core] def gap(u: Double, logKeep: Double): Long = {
    val g = fastGap(u, logKeep)
    if (g >= 0) g else exactGap(u, logKeep)
  }

  /** Regression: sample whole blocks (the fit needs the block, §III-D3),
    * fit each sampled block on original values and collect its residuals.
    */
  def regression(field: Field, rate: Double, seed: Long): PredictionErrorSample =
    PredictionErrorSample(RegressionPredictor.name, chosenBlockResiduals(field, regressionBlocks(field, rate, seed)),
      field.size, field.valueRange, field.variance)

  /** The blocks the regression sample takes, flagged by block index: a fixed
    * subset, enough blocks for a representative histogram even on small
    * fields (§III-D3 relies on the block unit being small relative to the
    * data).
    */
  private[core] def regressionBlocks(field: Field, rate: Double, seed: Long): Array[Boolean] = {
    val rnd = new java.util.Random(seed)
    val nBlocks = RegressionPredictor.blockCount(field.dims)
    val pointsPerBlock = math.max(1, field.size / nBlocks)
    val wanted = math.min(nBlocks,
      math.max(math.max(8, MinSamples / pointsPerBlock), math.ceil(rate * nBlocks).toInt))
    val chosen = new Array[Boolean](nBlocks)
    var nChosen = 0
    while (nChosen < wanted) {
      val b = rnd.nextInt(nBlocks)
      if (!chosen(b)) { chosen(b) = true; nChosen += 1 }
    }
    chosen
  }

  /** The residuals of the `chosen` blocks, in block order: each block's box
    * comes from its index ([[RegressionPredictor.blockBox]]), so the pass
    * visits the chosen blocks alone. The sample chooses a few blocks, the
    * full scan every one.
    */
  private def chosenBlockResiduals(field: Field, chosen: Array[Boolean]): Array[Double] = {
    val lo = new Array[Int](field.ndim)
    val hi = new Array[Int](field.ndim)
    var size = 0
    var b = 0
    while (b < chosen.length) {
      if (chosen(b)) {
        RegressionPredictor.blockBox(field.dims, b, lo, hi)
        var vol = 1
        var d = 0
        while (d < lo.length) { vol *= hi(d) - lo(d); d += 1 }
        size += vol
      }
      b += 1
    }
    val out = new Array[Double](size)
    var k = 0
    b = 0
    while (b < chosen.length) {
      if (chosen(b)) {
        RegressionPredictor.blockBox(field.dims, b, lo, hi)
        k = blockResiduals(field, lo, hi, out, k)
      }
      b += 1
    }
    out
  }

  /** Writes the residuals of the block from `lo` to `hi` (exclusive), data
    * minus the block's fitted plane, row-major, into `out` from position
    * `k`; returns the position after the last one written.
    */
  private def blockResiduals(field: Field, lo: Array[Int], hi: Array[Int], out: Array[Double], k0: Int): Int = {
    val data = field.data
    val plane = RegressionPredictor.fitPlane(field, lo, hi)
    val slope = plane(plane.length - 1).toDouble
    var k = k0
    RegressionPredictor.foreachRowInBlock(field.strides, lo, hi) { (start, len, coords) =>
      val base = RegressionPredictor.rowBase(plane, coords, lo)
      var j = 0
      while (j < len) { out(k) = data(start + j) - (base + slope * j); k += 1; j += 1 }
    }
    k
  }

  /** Full-scan reference errors (used only by tests/benches to quantify the
    * sampling error of Fig. 4 — never by the model itself).
    */
  def fullErrors(field: Field, predictor: Predictor): Array[Double] = predictor match {
    case LorenzoPredictor =>
      val data = field.data
      val out = new Array[Double](field.size)
      LorenzoPredictor.Stencils(field.dims).foreachRow { (start, len, head, body, _) =>
        out(start) = data(start) - head.predict(data, start)
        var idx = start + 1
        while (idx < start + len) { out(idx) = data(idx) - body.predict(data, idx); idx += 1 }
      }
      out
    case InterpolationPredictor =>
      val data = field.data
      val out = new Array[Double](field.size - InterpolationPredictor.anchorCount(field.dims).toInt)
      var o = 0
      InterpolationPredictor.traverse(field.dims) { (first, step, count, back, right) =>
        if (back > 0) {
          var k = 0
          var idx = first
          while (k < count) {
            out(o) = data(idx) - InterpolationPredictor.predict(data, idx, back, k < right)
            o += 1
            k += 1
            idx += step
          }
        }
      }
      out
    case RegressionPredictor =>
      chosenBlockResiduals(field, Array.fill(RegressionPredictor.blockCount(field.dims))(true))
    case p => throw new IllegalArgumentException(s"no full-error scan for ${p.name}")
  }
}

/** The pseudo-random sequence of `java.util.Random(seed).nextDouble()`,
  * computed with the generator's documented 48-bit linear congruence
  * `s' = (s · 0x5DEECE66D + 0xB) mod 2^48` in a plain field. One instance
  * serves one thread, so it skips the atomic compare-and-set that
  * `java.util.Random` pays on every draw.
  */
private[core] final class Lcg(seed: Long) {
  private[this] var s: Long = (seed ^ Lcg.Multiplier) & Lcg.Mask

  /** Uniform in [0, 1): 53 random bits, as `java.util.Random.nextDouble`,
    * the top 26 bits of the next state and the top 27 of the one after.
    * Both states follow from the current one, the second as
    * s·M² + A·(M + 1), so neither waits for the other.
    */
  def nextDouble(): Double = {
    val s1 = (s * Lcg.Multiplier + Lcg.Addend) & Lcg.Mask
    val s2 = (s * Lcg.Multiplier2 + Lcg.Addend2) & Lcg.Mask
    s = s2
    (((s1 >>> 22) << 27) + (s2 >>> 21)) * Lcg.DoubleUnit
  }
}

private[core] object Lcg {
  private val Multiplier = 0x5DEECE66DL
  private val Addend = 0xBL
  /** Two steps at once: M² and A·(M + 1). Long arithmetic wraps mod 2^64, a
    * multiple of 2^48, so the mask still yields the state mod 2^48.
    */
  private val Multiplier2 = Multiplier * Multiplier
  private val Addend2 = Addend * (Multiplier + 1)
  private val Mask = (1L << 48) - 1
  private val DoubleUnit = 1.0 / (1L << 53)
}
