package repro.analysis

import repro.core.{Field, QualityModel}

/** Post-hoc analysis metrics computed on real (reconstructed, original) data.
  * These are the measured counterparts of the paper's quality model (§III-E).
  */
object Metrics {

  /** Mean squared error between two equally-shaped fields. */
  def mse(orig: Field, recon: Field): Double = sumSqError(orig, recon) / orig.size

  /** Σ (recon − orig)² in index order, the sum [[mse]] divides. */
  def sumSqError(orig: Field, recon: Field): Double = {
    require(orig.size == recon.size, "shape mismatch")
    var s = 0.0
    var i = 0
    while (i < orig.size) { val d = recon.data(i) - orig.data(i); s += d * d; i += 1 }
    s
  }

  /** Peak signal-to-noise ratio (dB), peak = value range of the original;
    * +∞ for an exact reconstruction. Eq. 12 over the mean squared error.
    */
  def psnr(orig: Field, recon: Field): Double = QualityModel.psnr(orig.valueRange, mse(orig, recon))

  /** Global (single-window) SSIM with the standard stabilizers
    * C4 = (0.01·range)² and C3 ([[QualityModel.ssimC3]]) — the same form as
    * the paper's Eq. (16), so the model estimate (Eq. 15) is directly
    * comparable.
    */
  def ssimGlobal(orig: Field, recon: Field): Double = {
    require(orig.size == recon.size, "shape mismatch")
    val n = orig.size
    var muX = 0.0; var muY = 0.0
    var i = 0
    while (i < n) { muX += orig.data(i); muY += recon.data(i); i += 1 }
    muX /= n; muY /= n
    var vX = 0.0; var vY = 0.0; var cov = 0.0
    i = 0
    while (i < n) {
      val dx = orig.data(i) - muX
      val dy = recon.data(i) - muY
      vX += dx * dx; vY += dy * dy; cov += dx * dy
      i += 1
    }
    vX /= n; vY /= n; cov /= n
    val range = orig.valueRange
    val c4 = math.pow(0.01 * range, 2)
    val c3 = QualityModel.ssimC3(range)
    ((2 * muX * muY + c4) * (2 * cov + c3)) / ((muX * muX + muY * muY + c4) * (vX + vY + c3))
  }
}
