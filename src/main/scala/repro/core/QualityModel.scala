package repro.core

/** Post-hoc analysis quality model (§III-E): PSNR (Eqs. 12–14) and SSIM
  * (Eqs. 15–19) by propagating the estimated compression-error distribution
  * through each metric. The paper's FFT/power-spectrum example is not
  * modelled (see `DESIGN.md`).
  */
object QualityModel {

  /** Eq. 12: PSNR(D', D) = 20·log₁₀(range) − 10·log₁₀(σ(E)²); +∞ for no
    * error. The one PSNR formula: the measured PSNR is this with the mean
    * squared error for σ(E)².
    */
  def psnr(range: Double, errVariance: Double): Double = {
    if (errVariance <= 0) Double.PositiveInfinity
    else 20 * math.log10(range) - 10 * math.log10(errVariance)
  }

  /** Inverse of Eq. 12: the error variance corresponding to a target PSNR. */
  def errVarianceForPsnr(range: Double, targetPsnr: Double): Double =
    math.pow(range, 2) / math.pow(10, targetPsnr / 10.0)

  /** SSIM's standard variance stabilizer C3 = (0.03·range)², shared by the
    * model (Eq. 15) and the measured global SSIM.
    */
  def ssimC3(range: Double): Double = math.pow(0.03 * range, 2)

  /** Eq. 15: SSIM(D', D) ≈ (2σ_D² + C3) / (2σ_D² + C3 + σ(E)²). */
  def ssim(fieldVariance: Double, range: Double, errVariance: Double): Double = {
    val c3 = ssimC3(range)
    (2 * fieldVariance + c3) / (2 * fieldVariance + c3 + errVariance)
  }
}
