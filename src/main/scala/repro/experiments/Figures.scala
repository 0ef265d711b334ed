package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.analysis.Metrics
import repro.compressor.{Compressor, InterpolationPredictor, LorenzoPredictor, Predictor}
import repro.core.{Field, RQModel}
import repro.data.SciData
import repro.sparkapi.{ChunkRow, Chunks}
import repro.usecases._

/** Fig. 9 harness: wall-clock of the model workflow (one sampling + k
  * estimates) vs the trial-and-error workflow (k full compressions), averaged
  * over the three RTM fields. The paper reports 18.7× with 7 candidates.
  */
object PerfOverhead {

  final case class Result(modelSecs: Double, taeSecs: Double) {
    def speedup: Double = taeSecs / modelSecs
  }

  def run(predictor: Predictor = LorenzoPredictor, nCandidates: Int = 7, test: Boolean = false): Result = {
    val fields = SciData.fields.filter(_.dataset == "RTM").map(_.generate(test))
    val ebRels = (0 until nCandidates).map(i => 1e-4 * math.pow(10, i * 3.0 / nCandidates))
    var tModel = 0.0
    var tTae = 0.0
    fields.foreach { f =>
      val range = f.valueRange
      // model: one sampling pass, then k cheap estimates
      val t0 = System.nanoTime()
      val model = RQModel.build(f, predictor)
      ebRels.foreach(r => model.estimate(r * range))
      val t1 = System.nanoTime()
      // trial-and-error: k full compressions
      ebRels.foreach(r => Compressor.compress(f, r * range, predictor))
      val t2 = System.nanoTime()
      tModel += (t1 - t0) / 1e9
      tTae += (t2 - t1) / 1e9
    }
    Result(tModel / fields.length, tTae / fields.length)
  }
}

/** Fig. 10 harness: predictor selection on RTM. Estimated rate-distortion
  * curves per predictor, the model's Lorenzo→interpolation crossover
  * bit-rate, and the measured crossover interval it should fall into.
  */
object PredictorSelectionExp {

  final case class Result(
      estCrossoverBits: Option[Double],
      measCrossoverInterval: Option[(Double, Double)],
      curveErrPsnr: Double, // Eq. 20 of est vs meas PSNR across points
  )

  val EbSweep: Seq[Double] = Seq(2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2)

  def run(test: Boolean = false): Result = {
    val f = SciData.byId("RTM", "2000").generate(test)
    val range = f.valueRange
    val est = PredictorSelection.crossoverBitRate(f, LorenzoPredictor, InterpolationPredictor, EbSweep)

    // measured crossover interval: the consecutive grid bit-rates between
    // which the PSNR-at-equal-bit-rate winner flips
    val meas = PredictorSelection.measureCurves(f, EbSweep, Seq(LorenzoPredictor, InterpolationPredictor))
    def curve(p: String) = meas.filter(_.predictor == p).map(m => (m.bitRate, m.psnr))
    val measInterval = PredictorSelection
      .crossoverBracket(curve(LorenzoPredictor.name), curve(InterpolationPredictor.name), steps = 100)
      .map { case ((b1, _), (b2, _)) => (b1, b2) }

    // curve accuracy: est PSNR vs measured PSNR at the same ebs (Lorenzo)
    val model = RQModel.build(f, LorenzoPredictor)
    val estPsnr = EbSweep.map(r => model.estimate(r * range).psnr)
    val measPsnr = EbSweep.map { r =>
      val res = Compressor.compress(f, r * range, LorenzoPredictor)
      Metrics.psnr(f, res.recon)
    }
    Result(est, measInterval, RQModel.accuracyError(measPsnr, estPsnr))
  }
}

/** Fig. 11 harness: 15 groups of random RTM-like timesteps with random byte
  * budgets; report each group's used fraction of its assigned space and the
  * first-round overflow rate.
  */
object MemoryControl {

  final case class Result(usedFractions: Seq[Double], overflowRate: Double, allFitAfterRetry: Boolean)

  def run(nGroups: Int = 15, test: Boolean = false, seed: Long = 7L): Result = {
    val rnd = new java.util.Random(seed)
    val base = SciData.byId("RTM", "2000")
    val outcomes = (0 until nGroups).map { g =>
      val t = 800.0 + rnd.nextInt(2400)
      val dims = if (test) base.testDims else base.benchDims
      val f = SciData.rtmSnapshot3d(t)(dims, 101 + g)
      // budget: 2–6 bits/point worth of space
      val budgetBits = (2.0 + rnd.nextDouble() * 4.0) * f.size
      MemoryTarget.fit(f, (budgetBits / 8).toLong, LorenzoPredictor, strict = true)
    }
    Result(
      usedFractions = outcomes.map(_.usedFraction),
      overflowRate = outcomes.count(_.overflowedFirstRound).toDouble / outcomes.length,
      allFitAfterRetry = outcomes.forall(o => o.usedBytes <= o.budgetBytes),
    )
  }
}

/** Figs. 12–13 harness: in-situ per-timestep error-bound optimization for the
  * RTM stacked image vs the uniform-eb baseline at the same quality budget.
  */
object InSituExp {

  final case class Result(
      uniformBytes: Long,
      optimizedBytes: Long,
      uniformVariance: Double,
      optimizedVariance: Double,
      varianceBudget: Double, // the shared quality target both methods meet
      ebs: Seq[Double],
      extraRatio: Double, // optimized ratio / uniform ratio − 1
  )

  def run(nSteps: Int = 8, test: Boolean = false): Result = {
    val base = SciData.byId("RTM", "2000")
    val dims = if (test) base.testDims else base.benchDims
    // wavefront expands with t: early snapshots are small quiet shells, late
    // ones fill the volume — heterogeneous difficulty, which is what makes
    // per-partition tuning pay off (Fig. 12's premise)
    val parts = (0 until nSteps).map(i => SciData.rtmSnapshot3d(200.0 + 3000.0 * i / math.max(1, nSteps - 1))(dims, 77 + i))
    val models = parts.map(f => RQModel.build(f, LorenzoPredictor))
    val ranges = parts.map(_.valueRange)
    // fine grid so the Lagrangian allocator can differentiate partitions
    val grids = parts.zip(ranges).map { case (_, r) =>
      (0 until 25).map(i => r * 1e-4 * math.pow(10, 3.0 * i / 24)).toArray
    }

    // quality budget: the total variance the uniform baseline reaches at a
    // mid-sweep shared REL eb — then ask the optimizer to match it with fewer bits
    val sharedRel = 2e-3
    val uniformEbs = ranges.map(_ * sharedRel)
    val vStar = models.zip(uniformEbs).map { case (m, e) => m.errVariance(e) }.sum

    val alloc = InSitu.optimize(models, vStar, grids)
    val uni = InSitu.compressAll(parts, uniformEbs, LorenzoPredictor)
    val opt = InSitu.compressAll(parts, alloc.ebs.toSeq, LorenzoPredictor)
    Result(
      uniformBytes = uni.totalBytes,
      optimizedBytes = opt.totalBytes,
      uniformVariance = uni.sumErrVariance,
      optimizedVariance = opt.sumErrVariance,
      varianceBudget = vStar,
      ebs = alloc.ebs.toSeq,
      extraRatio = uni.totalBytes.toDouble / opt.totalBytes - 1.0,
    )
  }
}

/** Fig. 14 harness: dump-time comparison (traditional / in-situ TAE / model)
  * over a sequence of snapshots, each split into per-process portions handled
  * on Spark executors.
  */
object DataDumpingExp {

  final case class MethodTotals(method: String, optS: Double, compressS: Double, ioS: Double,
                                bytes: Long, minPsnr: Double, maxDumpS: Double) {
    def totalS: Double = optS + compressS + ioS
  }

  final case class Result(totals: Seq[MethodTotals], targetPsnr: Double) {
    private def total(m: String): Double = totals.find(_.method == m).get.totalS
    def speedupVsTraditional: Double = total("traditional") / total("model")
    def speedupVsTae: Double = total("tae") / total("model")
    def render: String = {
      val sb = new StringBuilder
      sb.append(f"${"method"}%-12s ${"opt(s)"}%9s ${"comp(s)"}%9s ${"io(s)"}%9s ${"total(s)"}%9s ${"maxDump(s)"}%11s ${"bytes"}%12s ${"minPSNR"}%8s\n")
      totals.foreach { t =>
        sb.append(f"${t.method}%-12s ${t.optS}%9.3f ${t.compressS}%9.3f ${t.ioS}%9.3f ${t.totalS}%9.3f ${t.maxDumpS}%11.3f ${t.bytes}%12d ${t.minPsnr}%8.2f\n")
      }
      sb.append(f"speedup vs traditional: ${speedupVsTraditional}%.2f×, vs TAE: ${speedupVsTae}%.2f×\n")
      sb.toString
    }
  }

  def run(spark: SparkSession, nSnapshots: Int = 6, portionsPerSnapshot: Int = 4,
          targetPsnr: Double = 56.0, test: Boolean = false): Result = {
    import spark.implicits._
    val base = SciData.byId("RTM", "2000")
    val dims = if (test) base.testDims else base.benchDims
    val snaps = (0 until nSnapshots).map(i => SciData.rtmSnapshot3d(500.0 + 500.0 * i)(dims, 55 + i))
    val candidatesRel = Seq(1e-4, 5e-4, 1e-3, 5e-3, 1e-2)

    val tradRel = DataDumping.traditionalErrorBound(snaps, candidatesRel, targetPsnr, LorenzoPredictor)

    val rows = snaps.zipWithIndex.flatMap { case (f, i) =>
      Chunks.split(f, portionsPerSnapshot).zipWithIndex.map { case (c, p) =>
        ChunkRow("RTM", i.toString, p, c.dims, c.data)
      }
    }
    val ds = spark.createDataset(rows).repartition(spark.sparkContext.defaultParallelism)
    val stats = DataDumping.runOnSpark(ds, LorenzoPredictor, targetPsnr, tradRel, candidatesRel).collect()

    val totals = Seq("traditional", "tae", "model").map { m =>
      val ms = stats.filter(_.method == m)
      // per snapshot: portions run in parallel -> dump time is the max portion
      val perSnap = ms.groupBy(_.snapshot).map { case (_, ss) => ss.map(_.totalS).max }
      MethodTotals(m,
        optS = ms.map(_.optTimeS).sum,
        compressS = ms.map(_.compressTimeS).sum,
        ioS = ms.map(_.ioTimeS).sum,
        bytes = ms.map(_.bytes).sum,
        minPsnr = ms.map(_.psnr).min,
        maxDumpS = perSnap.max)
    }
    Result(totals, targetPsnr)
  }
}
