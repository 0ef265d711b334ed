package repro.core

import repro.compressor.Huffman

/** Reconstruction-feedback correction layer (the paper's §III-D4 / Eq. 9).
  *
  * The sampler predicts from *original* neighbor values, but the real
  * compressor predicts from *reconstructed* neighbors. In the
  * high-error-bound regime (p0 ≥ θ2) the reconstruction carries a slowly
  * accumulating drift: points quantized to the central bin reconstruct to
  * their prediction, so sub-bound errors compound along the scan like a
  * random walk against the ±e barrier. Each barrier crossing emits a ±1
  * quantization code the original-value sample never sees.
  *
  * A walk with step σ (the std-dev of sub-bound prediction errors, the
  * σ(B[0]) the model already computes) confined to ±e crosses at rate
  * ≈ (σ/e)², so we transfer
  *
  *   rate = Cd · (σ(B[0])/e)²
  *
  * of the central bin's mass evenly to the ±1 bins — exactly the shape of
  * the paper's Eq. 9 transfer, with the per-predictor constant Cd playing
  * C2's role (calibrated once, then fixed; regression has none). When σ(B[0])
  * is comparable to e the errors are plain noise, not walk increments
  * (reconstruction *denoises* instead of drifting), so the correction
  * switches off above σ/e = 0.5, which bounds the rate by
  * Cd · [[MaxSigmaRatio]]².
  *
  * This analytic layer serves the samples without patches: interpolation
  * and regression. A Lorenzo sample always carries patches, whose
  * simulation in [[PatchSim]] shows the feedback directly; only the
  * drift of walks longer than a patch is extrapolated for it
  * (`RQModel.patchDriftRate`).
  */
object Feedback {

  /** Eq. 9's θ2: below this central-bin share the raw sample is accurate. */
  val Theta2 = 0.8

  /** Drift applies only while sub-bound errors are true walk increments. */
  val MaxSigmaRatio = 0.5

  /** Interpolation's drift constant (the analogue of the paper's C2),
    * calibrated once and then held fixed for all datasets.
    */
  val CdInterp: Double = 0.5

  def cd(predictor: String): Double = predictor match {
    case "interp" => CdInterp
    case _        => 0.0 // regression predicts from shipped coefficients: no feedback
  }

  /** The fraction of central-bin codes the drift moves to the ±1 bins. */
  def driftRate(predictor: String, p0Raw: Double, sigmaB0: Double, eb: Double): Double = {
    val c = cd(predictor)
    if (c == 0.0 || p0Raw < Theta2 || eb <= 0) return 0.0
    val ratio = sigmaB0 / eb
    if (ratio > MaxSigmaRatio) 0.0
    else c * ratio * ratio
  }

  /** Mixing strength of the confined drift walk: in the drift regime the
    * central-bin compression errors are the walk's stationary state, much
    * tighter than uniform over [−e, e] (variance e²/3) for the depth-limited
    * interpolation cascade — not the raw sub-bound prediction errors the
    * sampler sees. μ scales the uniform-variance limit.
    */
  val MuInterp: Double = 0.2

  def mu(predictor: String): Double = predictor match {
    case "interp" => MuInterp
    case _        => 0.0
  }

  /** Effective central-bin variance for the quality model (Eq. 11's σ(B[0])):
    * raw sampled variance outside the drift regime, the walk's stationary
    * variance inside it.
    */
  def centralVariance(predictor: String, p0Raw: Double, rawCentralVar: Double, eb: Double): Double = {
    val m = mu(predictor)
    if (m == 0.0 || p0Raw < Theta2) return rawCentralVar
    val ratio = math.sqrt(rawCentralVar) / eb
    if (ratio > MaxSigmaRatio) rawCentralVar // noise regime: reconstruction denoises
    else math.max(rawCentralVar, m * eb * eb / 3.0)
  }

  /** Codes the drift at `rate` moves out of a central bin of `central`. */
  def moved(central: Long, rate: Double): Long =
    if (rate <= 0.0) 0L else math.round(central * rate)

  /** Apply the drift transfer to a code histogram: [[moved]] of its zero
    * codes move, half of them (rounded down) to +1 and the rest to −1.
    * Returns `hist` itself when none move.
    */
  def applyDrift(hist: Huffman.Histogram, rate: Double): Huffman.Histogram = {
    val moved = Feedback.moved(hist.count(0).toLong, rate)
    if (moved == 0) hist
    else {
      val half = moved / 2
      hist.moveZeros(half.toInt, (moved - half).toInt)
    }
  }
}
