package repro.usecases

import repro.analysis.Metrics
import repro.compressor.{Compressor, Predictor}
import repro.core.{Field, RQModel}

/** Use-case 3 (§IV-C, Figs. 12–13): fine-grained error-bound tuning across
  * the partitions (timesteps / ranks) that jointly feed a post-hoc analysis.
  *
  * The RTM stacked image is the paper's example: the final image sums the
  * per-timestep images, so independent compression errors add in variance and
  * the overall quality is governed by Σ_t σ²_t. A single shared error bound
  * (the traditional approach) wastes bits on easy timesteps; the model lets
  * us solve, per partition,
  *
  *     min Σ_t bits_t(e_t)  s.t.  Σ_t σ²_t(e_t) ≤ V*
  *
  * via the Lagrangian: for a multiplier λ each partition independently picks
  * e_t minimizing bits_t(e) + λ·σ²_t(e) (a per-partition 1-D search over the
  * model — no compression), and λ is bisected until the variance budget is
  * met. This is exactly the "exponentially many combinations" the paper says
  * trial-and-error cannot search (§IV-C).
  */
object InSitu {

  final case class Allocation(ebs: Array[Double], estBits: Double, estVariance: Double)

  /** Per-partition error bounds meeting the total-variance budget `vStar`.
    * No estimate depends on λ, so each (partition, grid eb) pair is
    * estimated once, up front; every λ step then only compares costs.
    */
  def optimize(models: Seq[RQModel], vStar: Double, ebGridPerPartition: Seq[Array[Double]]): Allocation = {
    require(models.length == ebGridPerPartition.length)
    val grids = ebGridPerPartition.toArray
    // bits(t)(i), variance(t)(i): the estimate of partition t at grid eb i
    val bits = new Array[Array[Double]](grids.length)
    val variance = new Array[Array[Double]](grids.length)
    models.zipWithIndex.foreach { case (m, t) =>
      val ests = grids(t).map(m.estimate)
      bits(t) = ests.map(_.llBitRate * m.sample.totalPoints)
      variance(t) = ests.map(_.errVariance)
    }
    def allocate(lambda: Double): Allocation = {
      val ebs = new Array[Double](grids.length)
      var totalBits = 0.0
      var v = 0.0
      var t = 0
      while (t < grids.length) {
        val grid = grids(t)
        var best = grid(0)
        var bestCost = Double.MaxValue
        var bestBits = 0.0
        var bestVar = 0.0
        var i = 0
        while (i < grid.length) {
          val cost = bits(t)(i) + lambda * variance(t)(i)
          if (cost < bestCost) { bestCost = cost; best = grid(i); bestBits = bits(t)(i); bestVar = variance(t)(i) }
          i += 1
        }
        ebs(t) = best; totalBits += bestBits; v += bestVar
        t += 1
      }
      Allocation(ebs, totalBits, v)
    }
    // λ=0 → each partition takes its largest eb (min bits, max variance).
    // Increasing λ tightens quality. Bisection on log λ.
    var lo = 1e-12
    var hi = 1e18
    var out = allocate(lo)
    if (out.estVariance <= vStar) return out
    var i = 0
    while (i < 80) {
      val mid = math.sqrt(lo * hi)
      val a = allocate(mid)
      if (a.estVariance <= vStar) { hi = mid; out = a } else lo = mid
      i += 1
    }
    out
  }

  /** Measured outcome of compressing every partition at the given ebs. */
  final case class MeasuredOutcome(totalBytes: Long, totalBits: Double, sumErrVariance: Double, bitRate: Double)

  def compressAll(parts: Seq[Field], ebs: Seq[Double], predictor: Predictor): MeasuredOutcome = {
    var bytes = 0L
    var sumVar = 0.0
    var n = 0L
    parts.zip(ebs).foreach { case (f, e) =>
      val res = Compressor.compress(f, e, predictor)
      bytes += res.huffPlusLLBytes
      sumVar += Metrics.mse(f, res.recon)
      n += f.size
    }
    MeasuredOutcome(bytes, bytes * 8.0, sumVar, bytes * 8.0 / n)
  }
}
