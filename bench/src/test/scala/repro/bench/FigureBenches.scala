package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.experiments._
import repro.usecases.PredictorSelection

/** Fig. 9: optimization-overhead comparison. Paper: modeling beats
  * trial-and-error by 18.7× on average with 7 candidate error bounds.
  */
class PerfOverheadBench extends AnyFunSuite {

  test("Fig. 9: modeling vs trial-and-error wall-clock (7 candidates)") {
    // warm-up to stabilize JIT before timing
    PerfOverhead.run(test = true)
    val r = PerfOverhead.run(test = false)
    println("==== Fig. 9 (bench scale) ====")
    println(f"model workflow:        ${r.modelSecs}%.4f s (1 sampling + 7 estimates)")
    println(f"trial-and-error:       ${r.taeSecs}%.4f s (7 full compressions)")
    println(f"speedup:               ${r.speedup}%.1f×   (paper: 18.7×)")
    assert(r.speedup > 4.0, f"speedup only ${r.speedup}%.1f×")
  }
}

/** Fig. 10: predictor selection on RTM. Paper: interpolation overtakes
  * Lorenzo below ≈1.89 bits (measured switch in [1.47, 1.93]); overhead
  * 5.04 % vs 109.97 % for per-eb trial sampling (21.8×).
  */
class PredictorSelectionBench extends AnyFunSuite {

  test("Fig. 10: rate-distortion curves and Lorenzo-interpolation crossover") {
    val r = PredictorSelectionExp.run(test = false)
    println("==== Fig. 10 (bench scale) ====")
    println(s"estimated crossover bit-rate: ${r.estCrossoverBits.map(b => f"$b%.2f").getOrElse("none")} (paper: 1.89)")
    println(s"measured crossover interval:  ${r.measCrossoverInterval.map { case (a, b) => f"[$a%.2f, $b%.2f]" }.getOrElse("none")} (paper: [1.47, 1.93])")
    println(f"PSNR curve error (Eq. 20):    ${r.curveErrPsnr * 100}%.2f%%")
    assert(r.curveErrPsnr < 0.10)
    // if both a crossover estimate and a measured bracket exist, they agree
    for (est <- r.estCrossoverBits; (lo, hi) <- r.measCrossoverInterval) {
      val slack = (hi - lo).max(0.8)
      assert(est > lo - slack && est < hi + slack,
        f"est crossover $est%.2f outside measured [$lo%.2f, $hi%.2f] ± $slack%.2f")
    }
  }

  test("Fig. 10 overhead: one-time sampling vs per-eb trial compression") {
    val f = repro.data.SciData.byId("RTM", "2000").generate()
    val ebRels = PredictorSelectionExp.EbSweep
    val t0 = System.nanoTime()
    val curves = PredictorSelection.estimateCurves(f, ebRels)
    val t1 = System.nanoTime()
    PredictorSelection.measureCurves(f, ebRels)
    val t2 = System.nanoTime()
    val model = (t1 - t0) / 1e9
    val tae = (t2 - t1) / 1e9
    println(f"selection via model: $model%.3f s; via trial-and-error: $tae%.3f s; speedup ${tae / model}%.1f× (paper: 21.8×)")
    assert(curves.nonEmpty)
    assert(tae / model > 2.0)
  }
}

/** Fig. 11: memory-footprint control. Paper: sizes cluster at ~80 % of the
  * assigned budget, ≈5 % first-round overflows, all recoverable.
  */
class MemoryControlBench extends AnyFunSuite {

  test("Fig. 11: 15 random groups stay within their assigned space") {
    val r = MemoryControl.run(nGroups = 15, test = false)
    println("==== Fig. 11 (bench scale) ====")
    println(s"used fraction of budget per group: ${r.usedFractions.map(f => f"$f%.3f").mkString(", ")}")
    println(f"first-round overflow rate: ${r.overflowRate * 100}%.1f%% (paper: ~5%%)")
    assert(r.allFitAfterRetry, "a group exceeded its budget even after re-optimization")
    assert(r.overflowRate <= 0.4, f"overflow rate ${r.overflowRate * 100}%.0f%%")
    // the 80% headroom strategy should land most groups between 0.4 and 1.0
    val inBand = r.usedFractions.count(f => f > 0.3 && f <= 1.0)
    assert(inBand >= r.usedFractions.length * 2 / 3, r.usedFractions.toString)
  }
}

/** Figs. 12–13: in-situ per-timestep error-bound tuning. Paper: +13 %
  * compression ratio at the same overall post-hoc quality (or +31 % quality
  * at the same ratio).
  */
class InSituBench extends AnyFunSuite {

  test("Figs. 12-13: per-timestep tuning beats the uniform error bound") {
    val r = InSituExp.run(nSteps = 8, test = false)
    println("==== Figs. 12-13 (bench scale) ====")
    println(s"per-timestep error bounds: ${r.ebs.map(e => f"$e%.3g").mkString(", ")}")
    println(f"uniform-eb bytes:   ${r.uniformBytes}%d (sum error variance ${r.uniformVariance}%.3g)")
    println(f"optimized bytes:    ${r.optimizedBytes}%d (sum error variance ${r.optimizedVariance}%.3g)")
    println(f"extra compression ratio at equal quality target: ${r.extraRatio * 100}%.1f%% (paper: +13%%)")
    assert(r.extraRatio > 0.02, "optimizer failed to beat the uniform baseline")
    // equal-quality-target constraint (the paper's setup): both methods'
    // measured error variance stays within the shared budget (small model
    // slack allowed)
    assert(r.optimizedVariance <= r.varianceBudget * 1.15,
      s"quality budget exceeded: ${r.optimizedVariance} vs budget ${r.varianceBudget}")
    assert(r.uniformVariance <= r.varianceBudget * 1.15)
    assert(r.ebs.distinct.length > 1, "degenerate allocation (all partitions equal)")
  }
}

/** Fig. 14: end-to-end dump time with parallel portions on Spark executors.
  * Paper: up to 3.4× vs the traditional static approach and 2.2× vs in-situ
  * trial-and-error, with the max dump time notably lower.
  */
class DataDumpingBench extends SparkSpec {

  test("Fig. 14: traditional vs TAE vs model dump times") {
    // warm-up pass so JIT state does not skew the timed comparison
    DataDumpingExp.run(spark, nSnapshots = 2, portionsPerSnapshot = 2, test = true)
    val r = DataDumpingExp.run(spark, nSnapshots = 6, portionsPerSnapshot = 4, test = false)
    println("==== Fig. 14 (bench scale) ====")
    println(r.render)
    val byM = r.totals.map(t => t.method -> t).toMap
    // quality: every method meets the target (model within its safety margin)
    assert(byM("traditional").minPsnr >= r.targetPsnr - 0.5)
    assert(byM("tae").minPsnr >= r.targetPsnr - 0.5)
    assert(byM("model").minPsnr >= r.targetPsnr - 4.0)
    // bytes: adaptive methods store less than the worst-case static bound —
    // this is what drives the paper's I/O-bound 3.4× (their dump time is
    // dominated by bytes written; our JVM compressor makes the simulation
    // compute-bound, so wall-clock vs the zero-optimization traditional
    // method is reported but not asserted)
    assert(byM("model").bytes < byM("traditional").bytes)
    assert(byM("model").bytes < byM("tae").bytes)
    // time: the model avoids TAE's trial compressions
    assert(r.speedupVsTae > 1.3, r.render)
    // stability: the worst-snapshot dump time should not be worse than TAE's
    assert(byM("model").maxDumpS <= byM("tae").maxDumpS * 1.2, r.render)
  }
}
