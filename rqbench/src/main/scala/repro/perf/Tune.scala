package repro.perf

import repro.analysis.{Metrics => Measure}
import repro.compressor.{Compressor, LorenzoPredictor, Predictor}
import repro.core.{Field, RQModel}
import repro.data.{SciData, SciField}
import repro.usecases.InSitu
import scala.collection.mutable.ArrayBuffer

/** `tune`: the model path, the paper's contribution. One decision builds the
  * model from a 1 % sample and inverts it for a PSNR or a bit-rate target;
  * every registry field × predictor × target kind is one decision. Each pass
  * also allocates error bounds over RTM partitions with `InSitu.optimize`
  * (Figs. 12–13). The model layers do all the timed work and the compressor
  * none: each chosen bound is verified by compressing at it after the timed
  * passes. Lorenzo takes the PatchSim path and the other predictors the
  * analytic one, so a PatchSim change has a bypass inside this workload.
  */
final class Tune extends Workload {
  import Tune._

  private var decisions: Seq[Decision] = Nil
  private var partModels: Seq[RQModel] = Nil
  private var vStar = 0.0
  private var grids: Seq[Array[Double]] = Nil
  /** Chosen bounds of each pass, and the in-situ allocation of each pass. */
  private val chosen = ArrayBuffer.empty[Seq[Double]]
  private val allocations = ArrayBuffer.empty[Seq[Double]]
  private val estimatesPerInversion = ArrayBuffer.empty[Double]
  private var allocEstimates = 0L
  private var nEstimates = 0L
  private var sampledPoints = 0L
  private var patches = 0L
  private var tracedPasses = 0
  /** Decisions of the current traced pass, probed after it. */
  private val toProbe = ArrayBuffer.empty[(RQModel, Double, Long)]

  def setup(run: Run): Unit = {
    // JIT warm-up on the registry's own inputs (seed 0) whatever the run's
    // seed: the decisions at test dims and one in-situ allocation. The code
    // the JIT compiles, and so what escape analysis removes from the heap,
    // then does not depend on the seed.
    decisionsOf(Inputs.generateAll(run, test = true, seed = Some(0L))).foreach(d => decide(run, d))
    val (warmModels, warmVStar, warmGrids) = inSitu(0L)
    InSitu.optimize(warmModels, warmVStar, warmGrids)

    decisions = decisionsOf(Inputs.generateAll(run, test = false))
    val (models, v, g) = inSitu(run.seed)
    partModels = models
    vStar = v
    grids = g
  }

  /** In-situ partitions: successive RTM wavefront snapshots, as in
    * InSituExp, their seeds offset like the registry's; their models, the
    * variance budget and the eb grid of each.
    */
  private def inSitu(seed: Long): (Seq[RQModel], Double, Seq[Array[Double]]) = {
    val parts = (0 until InSituParts).map { i =>
      SciData.rtmSnapshot3d(200.0 + 3000.0 * i / (InSituParts - 1))(InSituDims, 77L + i + seed)
    }
    val models = parts.map(f => RQModel.build(f, LorenzoPredictor))
    val ranges = parts.map(_.valueRange)
    val grids = ranges.map(r => Array.tabulate(InSituGrid)(i => r * 1e-4 * math.pow(10, 3.0 * i / (InSituGrid - 1))))
    val vStar = models.zip(ranges).map { case (m, r) => m.estimate(r * InSituSharedRel).errVariance }.sum
    (models, vStar, grids)
  }

  override def provenance: Seq[(String, Any)] = super.provenance :+ ("data_scale" ->
    s"registry bench dims, ${decisions.map(_.field.size.toLong).sum / 6} points; in-situ $InSituParts x ${InSituDims.mkString("x")}")

  /** Builds the model and inverts it; returns the model, the bound and the inversion time. */
  private def decide(run: Run, d: Decision): (RQModel, Double, Long) = run.span("tune.decision") {
    val model = run.span(s"core.sample.${d.predictor.name}")(RQModel.build(d.field, d.predictor))
    val t0 = System.nanoTime()
    val eb = d.kind match {
      case Psnr => run.span("core.inv_psnr")(model.errorBoundForPsnr(d.target))
      case BitRate => run.span("core.inv_bitrate")(model.errorBoundForBitRate(d.target))
    }
    (model, eb, System.nanoTime() - t0)
  }

  def pass(run: Run): Unit = {
    val ebs = decisions.map { d =>
      var eb = Double.NaN
      run.op(s"decision ${d.spec.id} ${d.predictor.name} ${d.kind}") {
        val t0 = System.nanoTime()
        val (model, e, invNs) = decide(run, d)
        val ms = (System.nanoTime() - t0) / 1e6
        run.recordOpMs(ms)
        if (run.traced) toProbe += ((model, e, invNs))
        eb = e
        !e.isNaN && !e.isInfinite && e > 0
      }
      eb
    }
    chosen += ebs
    run.op("in-situ allocation") {
      val alloc = run.span("usecases.insitu")(InSitu.optimize(partModels, vStar, grids))
      allocations += alloc.ebs.toSeq
      alloc.ebs.length == InSituParts && alloc.ebs.forall(e => !e.isNaN && !e.isInfinite && e > 0)
    }
    if (run.traced) tracedPasses += 1
  }

  /** Traced passes: times single estimates on each decision's model. */
  override def replay(run: Run): Unit = {
    toProbe.foreach { case (model, eb, invNs) => probe(run, model, eb, invNs) }
    toProbe.clear()
  }

  private def probe(run: Run, model: RQModel, eb: Double, invNs: Long): Unit = {
    val path = if (model.sample.patches.nonEmpty) "patchsim" else "analytic"
    val a0 = Alloc.currentThread()
    val times = (1 to EstimateProbes).map { _ =>
      val t0 = System.nanoTime()
      run.span(s"core.estimate.$path")(model.estimate(eb))
      (System.nanoTime() - t0) / 1e6
    }
    allocEstimates += Alloc.currentThread() - a0
    nEstimates += EstimateProbes
    estimatesPerInversion += invNs / 1e6 / Stats.median(times)
    sampledPoints += model.sample.errors.length
    patches += model.sample.patches.length
  }

  def finish(run: Run): Quality = {
    // every pass must choose the same bounds; then verify each once
    chosen.zipWithIndex.drop(1).foreach { case (ebs, i) =>
      run.op(s"pass $i repeats the first pass's bounds")(ebs == chosen.head)
    }
    allocations.zipWithIndex.drop(1).foreach { case (a, i) =>
      run.op(s"pass $i repeats the first pass's in-situ allocation")(a == allocations.head)
    }
    val verified = decisions.zip(chosen.head).flatMap { case (d, eb) =>
      var out: Option[(Double, Double, Double)] = None
      run.op(s"verify ${d.spec.id} ${d.predictor.name} ${d.kind} at eb=$eb") {
        val res = Compressor.compress(d.field, eb, d.predictor)
        val psnr = Measure.psnr(d.field, res.recon)
        val measured = d.kind match {
          case Psnr => psnr
          case BitRate => res.huffLLBitRate
        }
        out = Some((math.abs(measured / d.target - 1), res.ratioHuffLL, psnr))
        Compressor.maxAbsError(d.field, res.recon) <= eb * (1 + 1e-10)
      }
      out
    }
    val targetErrPct = Stats.mean(verified.map(_._1)) * 100
    run.report("target_err_pct") = (targetErrPct, "%")
    run.report("verified") = (verified.length.toDouble, "count")
    run.report("decisions_per_pass") = (decisions.length.toDouble, "count")
    // the operations of this workload are its decisions
    if (run.opMs.nonEmpty) {
      run.report("decision_ms_p50") = (Stats.percentile(run.opMs.toSeq, 50), "ms")
      run.report("decision_ms_p90") = (Stats.percentile(run.opMs.toSeq, 90), "ms")
      run.report("decision_samples") = (run.opMs.length.toDouble, "count")
      run.layer("core.decision_ms_p50") = run.report("decision_ms_p50")._1
      run.layer("core.decision_ms_p90") = run.report("decision_ms_p90")._1
    }
    run.layer("core.target_err_pct") = targetErrPct
    if (tracedPasses > 0) {
      run.layer("core.estimates_per_inversion") = Stats.median(estimatesPerInversion.toSeq)
      run.layer("core.alloc_B_per_estimate") = allocEstimates.toDouble / nEstimates
      run.layer("core.sampled_points") = sampledPoints.toDouble / tracedPasses
      run.layer("core.patches") = patches.toDouble / tracedPasses
    }
    Quality(Stats.geomean(verified.map(_._2)), Stats.mean(verified.map(_._3).filterNot(_.isInfinite)))
  }
}

object Tune {
  sealed trait Kind
  case object Psnr extends Kind
  case object BitRate extends Kind

  /** Targets: a PSNR (dB) and a Huffman+lossless bit-rate (bits/point). */
  val PsnrTarget = 70.0
  val BitRateTarget = 2.0

  /** In-situ set-up: partitions, their dims, the eb grid per partition, and
    * the shared relative bound that sets the variance budget (InSituExp's).
    */
  val InSituParts = 16
  val InSituDims: Array[Int] = Array(24, 32, 32)
  val InSituGrid = 4
  val InSituSharedRel = 2e-3

  /** Single estimates timed per decision in traced passes. */
  val EstimateProbes = 3

  final case class Decision(spec: SciField, field: Field, predictor: Predictor, kind: Kind, target: Double)

  def decisionsOf(fields: Seq[(SciField, Field)]): Seq[Decision] =
    for {
      (spec, f) <- fields
      p <- Inputs.Predictors
      (kind, target) <- Seq(Psnr -> PsnrTarget, BitRate -> BitRateTarget)
    } yield Decision(spec, f, p, kind, target)
}
