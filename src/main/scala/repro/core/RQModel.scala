package repro.core

import repro.compressor.{Huffman, Predictor}

/** One ratio-quality estimate at a specific absolute error bound.
  *
  * Bit-rates cover the encoder payload (the quantity the encoder model
  * estimates, compared against the measured Huffman / Huffman+lossless
  * payloads in Table II).
  */
final case class RQEstimate(
    eb: Double,
    p0: Double,
    huffBitRate: Double,
    llBitRate: Double,
    errVariance: Double,
    psnr: Double,
    ssim: Double,
)

/** The paper's core contribution: an analytical ratio-quality model for a
  * (field, predictor) pair. Built from a one-time 1 % prediction-error sample;
  * every subsequent estimate or inversion costs O(|sample|), never a
  * compression run.
  */
final class RQModel(val sample: PredictionErrorSample) extends Serializable {
  import RQModel.{AnchorP0s, PsnrSearchSteps, PsnrTolerance}

  /** Forward estimate at absolute error bound `eb` (§III-B/-C/-E).
    *
    * The raw sampled-error histogram gets the reconstruction-feedback drift
    * correction (§III-D4 / Eq. 9, see [[Feedback]]) before feeding the
    * encoder model; the corrected central-bin share drives the
    * error-distribution mixture (Eq. 11) so the quality estimates see the
    * feedback too. Its `errVariance` is [[errVariance]]'s.
    */
  def estimate(eb: Double): RQEstimate = {
    val (hist, errVar) =
      if (sample.patches.nonEmpty) {
        // patch-simulation path (Lorenzo): short-range feedback appears
        // natively; the long-range drift adds its ±1 codes
        val sim = PatchSim.simulate(sample.patches, eb)
        (Huffman.histogram(Feedback.applyDrift(sim.codes, patchDriftRate(sim, eb))), patchVariance(sim, eb))
      } else {
        // analytic path (interpolation / regression): raw codes + the
        // Eq. 9-style drift correction and Eq. 11 error mixture
        val bin = ErrorDistribution.centralBin(sample.errors, eb)
        (Histogram.fromErrors(sample.errors, eb, driftRate(bin, eb)), analyticVariance(bin, eb))
      }
    val p0 = hist.p0
    val huffB = EncoderModel.huffmanBitRate(hist)
    val llB = EncoderModel.entropyBitRate(hist)
    val psnrEst = QualityModel.psnr(sample.range, errVar)
    val ssimEst = QualityModel.ssim(sample.variance, sample.range, errVar)
    RQEstimate(eb, p0, huffB, llB, errVar, psnrEst, ssimEst)
  }

  /** The compression-error variance at absolute error bound `eb`, equal bit
    * for bit to `estimate(eb).errVariance`, without the code histogram or
    * bit-rates: what a quality inversion needs at each step.
    */
  def errVariance(eb: Double): Double =
    if (sample.patches.nonEmpty) patchVariance(PatchSim.simulate(sample.patches, eb), eb)
    else analyticVariance(ErrorDistribution.centralBin(sample.errors, eb), eb)

  /** The share of PatchSim's zero codes the long-range drift moves to ±1:
    * once the walk mixes, barrier crossings arrive at rate ≈ √γ/e
    * (coherent/correlated steps), less the ±1 share the patches already show.
    */
  private[core] def patchDriftRate(sim: PatchSim.Result, eb: Double): Double = {
    val rateLong =
      if (mixes(sim, eb)) math.min(0.5, Feedback.AlphaLorenzo * math.sqrt(sim.medianGrowth) / eb)
      else 0.0
    math.max(0.0, rateLong - sim.nonZeroRate)
  }

  /** Drift walks longer than a patch are extrapolated from the in-patch
    * variance growth γ: coherent drift grows the std ~√γ per step, so the
    * walk mixes over the field, reaching the barrier, once √γ·N exceeds e.
    */
  private def mixes(sim: PatchSim.Result, eb: Double): Boolean = {
    val gamma = sim.medianGrowth
    gamma > 0 && math.sqrt(gamma) * sample.totalPoints > eb
  }

  /** PatchSim's error variance; a mixed walk's error distribution reaches
    * the confined-walk stationary state, ~uniform (e²/3).
    */
  private def patchVariance(sim: PatchSim.Result, eb: Double): Double =
    if (mixes(sim, eb)) math.max(sim.errVariance, ErrorDistribution.uniformVariance(eb)) else sim.errVariance

  /** The analytic path's drift rate, from the raw central-bin share and σ(B[0]). */
  private[core] def driftRate(bin: ErrorDistribution.CentralBin, eb: Double): Double =
    Feedback.driftRate(sample.predictor, bin.zeros.toDouble / sample.errors.length, math.sqrt(bin.variance), eb)

  /** Eq. 11 over the drift-corrected central-bin share and variance. */
  private def analyticVariance(bin: ErrorDistribution.CentralBin, eb: Double): Double = {
    val n = sample.errors.length
    val p0 = (bin.zeros - Feedback.moved(bin.zeros, driftRate(bin, eb))).toDouble / n
    val centralVar = Feedback.centralVariance(sample.predictor, bin.zeros.toDouble / n, bin.variance, eb)
    ErrorDistribution.mixedVariance(eb, p0, centralVar)
  }

  /** Eq. 2 (+ §III-C1 anchor interpolation for the p0 > 0.5 regime): the
    * error bound expected to deliver the target encoder bit-rate.
    *
    * @param targetB     target bits/point
    * @param withLossless whether the target is the Huffman + lossless
    *                     bit-rate ([[EncoderModel.entropyBitRate]]) rather
    *                     than the Huffman one
    */
  def errorBoundForBitRate(targetB: Double, withLossless: Boolean = true): Double = {
    require(targetB > 0, "target bit-rate must be positive")
    def bitRate(e: Double): Double = {
      val est = estimate(e)
      if (withLossless) est.llBitRate else est.huffBitRate
    }
    // the |error| quantiles at the p0 anchors, from one selection pass
    val anchorEbs = sample.absQuantiles(AnchorP0s).map(math.max(_, tinyEb))
    // Profile at the p0 = 0.5 anchor: Eq. 3's approximation holds above it.
    val e50 = anchorEbs(0)
    val b50 = bitRate(e50)
    if (targetB >= b50) {
      // Low-error-bound regime: Eq. 2, e* = 2^(B−B*)·e, once + one refinement.
      val e1 = clampEb(e50 * math.pow(2.0, b50 - targetB))
      val b1 = bitRate(e1)
      clampEb(e1 * math.pow(2.0, b1 - targetB))
    } else {
      // High-error-bound regime: interpolate over the p0 anchors (§III-C1).
      val anchors = anchorEbs.toSeq.map(e => (e, bitRate(e)))
      interpolateEb(anchors, targetB)
    }
  }

  /** Error bound expected to deliver a target PSNR on the mixed model
    * (Eq. 11), one [[errVariance]] per step — still sample-only, no
    * compression.
    *
    * The search runs on g(e) = ln(σ²(e)/σ²*), the model's PSNR miss in
    * nepers, over x = ln e, and returns the first bound it evaluates whose
    * model PSNR is within 0.01 dB of the target:
    *
    *   1. Eq. 12's closed form under the uniform distribution, e₀ = √(3σ²*),
    *      which a mixed Lorenzo walk meets exactly.
    *   2. The bracket end on the side of the target, a factor of 64 from e₀.
    *      A target beyond it returns that end.
    *   3. Illinois regula falsi (Dowell & Jarratt, 1971) between e₀ and that
    *      end: a secant step, whose retained end's g is halved when the same
    *      end survives twice, and a bisection whenever the step is not finite
    *      or lands within 0.1 % of the bracket width of an end.
    *
    * The model's variance is a step function of e (PatchSim replays a finite
    * set of patches, the analytic path counts a finite sample), so the target
    * can sit inside a jump. Then the bracket collapses to adjacent doubles,
    * or the step cap is reached, and the end nearer the target in g is
    * returned.
    */
  def errorBoundForPsnr(targetPsnr: Double): Double = {
    val targetVar = QualityModel.errVarianceForPsnr(sample.range, targetPsnr)
    def g(eb: Double): Double = math.log(errVariance(eb) / targetVar)
    val closed = math.sqrt(3 * targetVar)
    val eb0 = clampEb(closed)
    val g0 = g(eb0)
    if (math.abs(g0) <= PsnrTolerance) return eb0
    // the bracket ends (A below the target's bound, B above): bound and g there
    var ebA = eb0; var gA = g0
    var ebB = eb0; var gB = g0
    if (g0 > 0) {
      ebA = clampEb(closed / 64); gA = g(ebA)
      if (!(gA < 0)) return ebA
    } else {
      ebB = clampEb(closed * 64); gB = g(ebB)
      if (!(gB > 0)) return ebB
    }
    var a = math.log(ebA); var b = math.log(ebB)
    var wA = gA; var wB = gB // g as the secant weighs it
    var kept = 0 // +1 after a step that moved B and kept A, −1 after the reverse
    var step = 0
    while (step < PsnrSearchSteps) {
      val w = b - a
      var x = b - wB * (w / (wB - wA))
      if (!(x > a + 1e-3 * w && x < b - 1e-3 * w)) x = a + 0.5 * w
      if (!(x > a && x < b)) step = PsnrSearchSteps // collapsed to adjacent doubles
      else {
        val eb = math.exp(x)
        val gx = g(eb)
        if (math.abs(gx) <= PsnrTolerance) return eb
        if (gx > 0) {
          b = x; ebB = eb; gB = gx; wB = gx
          if (kept == 1) wA *= 0.5
          kept = 1
        } else {
          a = x; ebA = eb; gA = gx; wA = gx
          if (kept == -1) wB *= 0.5
          kept = -1
        }
        step += 1
      }
    }
    if (math.abs(gA) <= math.abs(gB)) ebA else ebB
  }

  private def tinyEb: Double = math.max(sample.range * 1e-12, Double.MinPositiveValue)

  private def clampEb(e: Double): Double =
    math.min(math.max(e, tinyEb), math.max(sample.range, tinyEb) * 10)

  /** Piecewise log-linear interpolation of e(B) over (e, B) anchor pairs. */
  private def interpolateEb(anchors: Seq[(Double, Double)], targetB: Double): Double = {
    // B decreases with e; sort by B ascending.
    val pts = anchors.sortBy(_._2)
    if (targetB <= pts.head._2) {
      // beyond the largest profiled error bound: extrapolate the last segment
      val Seq((e1, b1), (e2, b2)) = pts.take(2).toSeq
      return clampEb(extrapolate(e1, b1, e2, b2, targetB))
    }
    if (targetB >= pts.last._2) return pts.last._1
    val i = pts.lastIndexWhere(_._2 <= targetB)
    val (eLo, bLo) = pts(i)
    val (eHi, bHi) = pts(i + 1)
    clampEb(extrapolate(eLo, bLo, eHi, bHi, targetB))
  }

  private def extrapolate(e1: Double, b1: Double, e2: Double, b2: Double, targetB: Double): Double = {
    if (math.abs(b2 - b1) < 1e-12) return math.sqrt(e1 * e2)
    val t = (targetB - b1) / (b2 - b1)
    math.exp(math.log(e1) + t * (math.log(e2) - math.log(e1)))
  }
}

object RQModel {

  /** The central-bin shares p0 whose |error| quantiles `errorBoundForBitRate`
    * profiles (§III-C1), ascending.
    */
  private val AnchorP0s = Seq(0.5, 0.8, 0.95, 0.99)

  /** `errorBoundForPsnr`'s stopping rule: |g| ≤ 0.01 dB · ln 10 / 10, a
    * model PSNR within 0.01 dB of the target.
    */
  private val PsnrTolerance = 0.01 * math.log(10) / 10

  /** `errorBoundForPsnr`'s step cap: bisection alone collapses a bracket
    * ln 64 wide to adjacent doubles in about 55 steps.
    */
  private val PsnrSearchSteps = 100

  /** Build the model for a field and predictor: the one-time sampling pass. */
  def build(field: Field, predictor: Predictor, rate: Double = Sampler.DefaultRate, seed: Long = 42L): RQModel =
    new RQModel(Sampler.sample(field, predictor, rate, seed))

  /** The paper's accuracy metric (Eq. 20): E = 1 − (1 + STD(R/R' − 1))⁻¹
    * over paired (measured R, estimated R') values. Returned as the *error*
    * (Table II reports this as a percentage).
    */
  def accuracyError(measured: Seq[Double], estimated: Seq[Double]): Double = {
    require(measured.length == estimated.length && measured.nonEmpty, "paired, non-empty series required")
    val ratios = measured.zip(estimated).collect { case (m, e) if e != 0 && !m.isInfinite && !e.isInfinite => m / e - 1.0 }
    if (ratios.isEmpty) return 0.0
    val mu = ratios.sum / ratios.length
    val std = math.sqrt(ratios.map(r => (r - mu) * (r - mu)).sum / ratios.length)
    1.0 - 1.0 / (1.0 + std)
  }

  /** Bits/point below which Table II treats a bit-rate as degenerate (the
    * lossless stage on ultra-smooth data): the footprint is negligible
    * either way and a ratio of near-zeros is meaningless.
    */
  val BitRateFloor = 0.05

  /** Eq. 20 on bit-rate-like series whose values can degenerate to ~0: both
    * sides are floored at [[BitRateFloor]] before the ratio.
    */
  def accuracyErrorFloored(measured: Seq[Double], estimated: Seq[Double]): Double =
    accuracyError(measured.map(math.max(_, BitRateFloor)), estimated.map(math.max(_, BitRateFloor)))
}
