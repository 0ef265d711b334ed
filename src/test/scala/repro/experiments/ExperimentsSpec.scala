package repro.experiments

import repro.SparkSpec
import repro.data.SciData

/** Test-scale integration runs of the table/figure harnesses (bench-scale
  * versions with the real thresholds live in the bench project).
  */
class ExperimentsSpec extends SparkSpec {

  test("Table I registry renders all 10 datasets") {
    val out = TableI.render()
    SciData.datasets.foreach { case (ds, _, _) => assert(out.contains(ds)) }
    assert(TableI.rows().length == 10)
  }

  private lazy val tableII = TableII.run(spark, test = true, nChunks = 2, ebRels = TableIIGolden.EbRels)

  test("Table II at test scale: all columns finite, averages sane") {
    val res = tableII
    assert(res.rows.length == 17)
    res.rows.foreach { r =>
      assert(!r.huffErr.isNaN && r.huffErr >= 0 && r.huffErr < 1.0, s"${r.dataset}/${r.field} huff ${r.huffErr}")
      assert(!r.psnrErr.isNaN && r.psnrErr < 1.0)
      r.ssimErr.foreach(e => assert(!e.isNaN && e < 1.0))
      assert(r.sampleErr < 0.15, s"${r.dataset}/${r.field} sample ${r.sampleErr}")
    }
    // headline shape at test scale (loose): model is usable, not broken
    assert(res.avgHuffErr < 0.30, f"avg huff err ${res.avgHuffErr}%.3f")
    assert(res.avgPsnrErr < 0.15, f"avg psnr err ${res.avgPsnrErr}%.3f")
    // 1-D and EXAFEL fields have no SSIM, as in the paper
    assert(res.rows.count(_.ssimErr.isEmpty) == 4)
  }

  test("Table II at test scale: every row's six error columns match the recorded values") {
    val recorded = TableIIGolden.recorded()
    assert(recorded.head == TableIIGolden.Header)
    val expected = recorded.tail
    val actual = TableIIGolden.rows(tableII)
    assert(actual.length == 17 && expected.length == 17)
    val diffs = expected.zip(actual).filterNot { case (e, a) => TableIIGolden.matches(e, a) }
    assert(diffs.isEmpty, diffs.map { case (e, a) => s"\n  recorded $e\n  actual   $a" }.mkString)
  }

  test("PerfOverhead: modeling is faster than trial-and-error") {
    val r = PerfOverhead.run(test = true)
    assert(r.speedup > 1.5, f"speedup ${r.speedup}%.2f")
  }

  test("PredictorSelection at test scale: crossover, bracket and PSNR-curve error match the recorded bits") {
    val r = PredictorSelectionExp.run(test = true)
    def bits(d: Double): Long = java.lang.Double.doubleToLongBits(d)
    // at test dims the estimated Lorenzo and interpolation curves do not cross
    assert(r.estCrossoverBits.isEmpty, r)
    assert(r.measCrossoverInterval.map { case (lo, hi) => (bits(lo), bits(hi)) } ==
      Some((0x3fffcd2222222222L, 0x40004606d3a06d3aL)), r) // [1.98758, 2.03419] bits
    assert(bits(r.curveErrPsnr) == 0x3fa673e3bd654810L, r) // 4.385 %
  }

  test("MemoryControl at test scale: no group exceeds its budget") {
    val r = MemoryControl.run(nGroups = 6, test = true)
    assert(r.allFitAfterRetry)
    assert(r.usedFractions.forall(_ <= 1.0))
  }

  test("InSitu at test scale: optimized allocation does not lose to uniform") {
    val r = InSituExp.run(nSteps = 4, test = true)
    assert(r.optimizedBytes <= r.uniformBytes * 1.1,
      s"optimized=${r.optimizedBytes} uniform=${r.uniformBytes}")
  }

  test("DataDumping at test scale: adaptive methods store fewer bytes at target quality") {
    // timing speedups are a bench-scale claim (trial compressions are too
    // cheap at test dims); here we verify the mechanism: per-snapshot
    // adaptation beats the worst-case static bound on bytes while holding
    // the quality target
    val r = DataDumpingExp.run(spark, nSnapshots = 3, portionsPerSnapshot = 2, test = true)
    assert(r.totals.map(_.method).toSet == Set("traditional", "tae", "model"))
    val byM = r.totals.map(t => t.method -> t).toMap
    assert(byM("model").bytes < byM("traditional").bytes, r.render)
    assert(byM("traditional").minPsnr >= r.targetPsnr - 0.5, r.render)
    assert(byM("tae").minPsnr >= r.targetPsnr - 0.5, r.render)
    assert(byM("model").minPsnr >= r.targetPsnr - 4.0, r.render)
  }
}
