package repro.usecases

import repro.analysis.Metrics
import repro.compressor.{Compressor, Predictor}
import repro.core.{Field, RQEstimate, RQModel}

/** Use-case 1 (§IV-A, Fig. 10): select the best-fit predictor for a given
  * error bound / target bit-rate from the model's rate-distortion estimates —
  * one sampling pass per predictor, no trial compression.
  */
object PredictorSelection {

  /** A predictor's estimated rate-distortion curve. */
  final case class Curve(predictor: String, points: Seq[RQEstimate])

  /** Model-estimated rate-distortion curves for every predictor. */
  def estimateCurves(field: Field, ebRels: Seq[Double],
                     predictors: Seq[Predictor] = Predictor.all,
                     sampleRate: Double = 0.01): Seq[Curve] = {
    val range = field.valueRange
    predictors.map { p =>
      val model = RQModel.build(field, p, sampleRate)
      Curve(p.name, ebRels.map(r => model.estimate(math.max(r * range, 1e-300))))
    }
  }

  /** Measured rate-distortion points (the trial-and-error ground truth). */
  final case class MeasuredPoint(predictor: String, ebRel: Double, bitRate: Double, psnr: Double)

  def measureCurves(field: Field, ebRels: Seq[Double],
                    predictors: Seq[Predictor] = Predictor.all): Seq[MeasuredPoint] = {
    val range = field.valueRange
    for (p <- predictors; r <- ebRels) yield {
      val res = Compressor.compress(field, math.max(r * range, 1e-300), p)
      MeasuredPoint(p.name, r, res.huffLLBitRate, Metrics.psnr(field, res.recon))
    }
  }

  /** The predictor the model recommends at a given error bound: highest
    * estimated PSNR per estimated bit (here: best PSNR at the bit-rate the
    * predictor achieves for this eb — the paper picks the curve that is
    * higher at the operating point).
    */
  def selectAtErrorBound(field: Field, ebRel: Double,
                         predictors: Seq[Predictor] = Predictor.all): String = {
    val range = field.valueRange
    val cands = predictors.map { p =>
      val est = RQModel.build(field, p).estimate(math.max(ebRel * range, 1e-300))
      (p.name, est.llBitRate, est.psnr)
    }
    // dominance at fixed quality: fewer bits for ~equal PSNR wins; compare by
    // PSNR − κ·bits with κ from the local trade-off (6 dB ≈ 1 bit).
    cands.maxBy { case (_, bits, psnr) => psnr - 6.02 * bits }._1
  }

  /** The bit-rate below which `b` overtakes `a` on estimated PSNR-at-bit-rate
    * (the paper's Lorenzo→interpolation switch near 1.9 bits): the
    * [[crossover]] of the estimated curves on a 200-step grid; None if no
    * crossover.
    */
  def crossoverBitRate(field: Field, a: Predictor, b: Predictor,
                       ebRels: Seq[Double]): Option[Double] = {
    val range = field.valueRange
    def curve(p: Predictor): Seq[(Double, Double)] = {
      val model = RQModel.build(field, p)
      ebRels.map { r =>
        val est = model.estimate(math.max(r * range, 1e-300))
        (est.llBitRate, est.psnr)
      }
    }
    crossover(curve(a), curve(b), steps = 200)
  }

  /** The bit-rate at which curve `b`'s PSNR minus `a`'s first changes sign:
    * the linear root inside the first [[crossoverBracket]] on a `steps`
    * grid; None if the curves share no window or never cross.
    */
  def crossover(a: Seq[(Double, Double)], b: Seq[(Double, Double)], steps: Int): Option[Double] =
    crossoverBracket(a, b, steps).map { case ((b1, d1), (b2, d2)) => b1 + (b2 - b1) * d1 / (d1 - d2) }

  /** The first sign change of `b`'s PSNR minus `a`'s at equal bit-rate. Each
    * curve is a set of (bit-rate, PSNR) points, linearly interpolated; the
    * scan visits `steps` + 1 evenly spaced bit-rates across the window both
    * curves cover and returns the two consecutive (bit-rate, PSNR difference)
    * grid points that bracket the change, or None if the curves share no
    * window or never cross.
    */
  def crossoverBracket(a: Seq[(Double, Double)], b: Seq[(Double, Double)],
                       steps: Int): Option[((Double, Double), (Double, Double))] = {
    val pa = a.sortBy(_._1)
    val pb = b.sortBy(_._1)
    def psnrAt(points: Seq[(Double, Double)], bits: Double): Option[Double] =
      if (bits < points.head._1 || bits > points.last._1) None
      else {
        val i = points.lastIndexWhere(_._1 <= bits)
        val (loBits, loPsnr) = points(i)
        val (hiBits, hiPsnr) = if (i + 1 < points.length) points(i + 1) else points(i)
        if (hiBits == loBits) Some(loPsnr)
        else Some(loPsnr + (hiPsnr - loPsnr) * (bits - loBits) / (hiBits - loBits))
      }
    val minB = math.max(pa.head._1, pb.head._1)
    val maxB = math.min(pa.last._1, pb.last._1)
    if (minB >= maxB) None
    else {
      val diffs = (0 to steps).flatMap { i =>
        val bits = minB + (maxB - minB) * i / steps.toDouble
        for (qa <- psnrAt(pa, bits); qb <- psnrAt(pb, bits)) yield (bits, qb - qa)
      }
      diffs.sliding(2).collectFirst {
        case Seq(lo @ (_, d1), hi @ (_, d2)) if d1 * d2 < 0 => (lo, hi)
      }
    }
  }
}
