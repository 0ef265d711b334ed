package repro.usecases

import org.scalatest.funsuite.AnyFunSuite
import repro.analysis.Metrics
import repro.compressor.{Compressor, InterpolationPredictor, LorenzoPredictor, Predictor}
import repro.core.RQModel
import repro.data.SciData

class PredictorSelectionSpec extends AnyFunSuite {

  private lazy val rtm = SciData.byId("RTM", "2000").generate(test = true)
  private val ebRels = Seq(5e-4, 1e-3, 5e-3, 1e-2, 5e-2)

  test("estimateCurves produces one curve per predictor over the sweep") {
    val curves = PredictorSelection.estimateCurves(rtm, ebRels)
    assert(curves.map(_.predictor).toSet == Predictor.all.map(_.name).toSet)
    curves.foreach(c => assert(c.points.length == ebRels.length))
  }

  test("estimated curves are monotone: larger eb, fewer bits, lower PSNR") {
    PredictorSelection.estimateCurves(rtm, ebRels).foreach { c =>
      val bits = c.points.map(_.huffBitRate)
      assert(bits == bits.sorted.reverse, s"${c.predictor}: $bits")
    }
  }

  test("measureCurves returns the trial-and-error ground truth") {
    val meas = PredictorSelection.measureCurves(rtm, Seq(1e-3, 1e-2), Seq(LorenzoPredictor))
    assert(meas.length == 2)
    assert(meas.forall(_.psnr > 0))
  }

  // PSNR a = 10·bits, b = 19 + bits: b − a = 19 − 9·bits changes sign at 19/9
  private val a = Seq((3.0, 30.0), (1.0, 10.0))
  private val b = Seq((0.0, 19.0), (4.0, 23.0))

  test("crossoverBitRate returns a value inside the curves' common range when present") {
    // crossoverBitRate's root step, on curves whose difference is linear
    Seq(4, 200).foreach { steps =>
      val root = PredictorSelection.crossover(a, b, steps)
      assert(root.exists(r => math.abs(r - 19.0 / 9) <= 1e-9), s"steps=$steps: $root")
    }
    assert(PredictorSelection.crossover(a, a.map { case (x, q) => (x, q + 1) }, steps = 4).isEmpty)
    val Seq(lorenzo, interp) = PredictorSelection.estimateCurves(rtm, ebRels, Seq(LorenzoPredictor, InterpolationPredictor))
    PredictorSelection.crossoverBitRate(lorenzo, interp).foreach { r =>
      assert(r > 0 && r < 20)
    }
  }

  test("crossoverBracket brackets the first sign change on the shared bit-rate window") {
    assert(PredictorSelection.crossoverBracket(a, b, steps = 4) == Some(((2.0, 1.0), (2.5, -3.5))))
    assert(PredictorSelection.crossoverBracket(a, a.map { case (x, q) => (x, q + 1) }, steps = 4).isEmpty)
    assert(PredictorSelection.crossoverBracket(a, Seq((5.0, 0.0), (6.0, 1.0)), steps = 4).isEmpty)
  }
}

class MemoryTargetSpec extends AnyFunSuite {

  private lazy val rtm = SciData.byId("RTM", "2000").generate(test = true)

  test("fit stays within budget") {
    Seq(2.0, 3.0, 5.0).foreach { bitsPerPoint =>
      val budget = (bitsPerPoint * rtm.size / 8).toLong
      val out = MemoryTarget.fit(rtm, budget, LorenzoPredictor)
      assert(out.usedBytes <= budget, s"bits=$bitsPerPoint used=${out.usedBytes} budget=$budget")
    }
  }

  test("fit targets ~80% of the budget in the first round") {
    val budget = (4.0 * rtm.size / 8).toLong
    val out = MemoryTarget.fit(rtm, budget, LorenzoPredictor)
    assert(out.firstRoundBytes < budget * 1.05)
    assert(out.firstRoundBytes > budget * 0.4)
  }

  test("smaller budget forces a larger error bound") {
    val tight = MemoryTarget.fit(rtm, (1.5 * rtm.size / 8).toLong, LorenzoPredictor)
    val loose = MemoryTarget.fit(rtm, (6.0 * rtm.size / 8).toLong, LorenzoPredictor)
    assert(tight.ebUsed > loose.ebUsed)
  }
}

class InSituSpec extends AnyFunSuite {

  private lazy val parts = (0 until 4).map(i =>
    SciData.rtmSnapshot3d(800.0 + 600.0 * i)(Array(24, 32, 32), 77 + i))
  private lazy val models = parts.map(f => RQModel.build(f, LorenzoPredictor))
  private lazy val grids = parts.map(f =>
    Seq(1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2).map(_ * f.valueRange).toArray)

  test("optimize meets the variance budget") {
    val vStar = models.zip(grids).map { case (m, g) => m.estimate(g(2)).errVariance }.sum
    val alloc = InSitu.optimize(models, vStar, grids)
    assert(alloc.estVariance <= vStar * 1.01)
  }

  test("optimized allocation beats uniform at equal estimated quality") {
    val sharedEbs = grids.map(_.apply(2))
    val vStar = models.zip(sharedEbs).map { case (m, e) => m.estimate(e).errVariance }.sum
    val alloc = InSitu.optimize(models, vStar, grids)
    val uniformBits = models.zip(sharedEbs).map { case (m, e) =>
      m.estimate(e).llBitRate * m.sample.totalPoints
    }.sum
    assert(alloc.estBits <= uniformBits * 1.001,
      s"optimized=${alloc.estBits} uniform=$uniformBits")
  }

  test("per-partition ebs differ when partitions differ") {
    val vStar = models.zip(grids).map { case (m, g) => m.estimate(g(2)).errVariance }.sum
    val alloc = InSitu.optimize(models, vStar, grids)
    assert(alloc.ebs.distinct.length > 1)
  }

  test("compressAll measures bytes and variance per allocation") {
    val ebs = grids.map(_.apply(3))
    val out = InSitu.compressAll(parts, ebs, LorenzoPredictor)
    assert(out.totalBytes > 0)
    assert(out.sumErrVariance > 0)
  }
}

class DataDumpingSpec extends AnyFunSuite {

  private lazy val snaps = (0 until 3).map(i =>
    SciData.rtmSnapshot3d(1000.0 * (i + 1))(Array(24, 32, 32), 55 + i))

  test("traditionalErrorBound guarantees the target on every snapshot") {
    val eb = DataDumping.traditionalErrorBound(snaps, Seq(1e-4, 1e-3, 1e-2), targetPsnr = 60.0, LorenzoPredictor)
    snaps.foreach { f =>
      val res = Compressor.compress(f, eb * f.valueRange, LorenzoPredictor)
      assert(Metrics.psnr(f, res.recon) >= 60.0)
    }
  }

  test("dumpOne produces the three methods, all meeting the target") {
    val f = snaps.head
    val range = f.valueRange
    val candidatesRel = Seq(1e-4, 5e-4, 1e-3, 5e-3, 1e-2)
    val trad = DataDumping.traditionalErrorBound(snaps, candidatesRel, 56.0, LorenzoPredictor)
    val out = DataDumping.dumpOne(0, f, LorenzoPredictor, 56.0, trad * range, candidatesRel.map(_ * range))
    assert(out.map(_.method).toSet == Set("traditional", "tae", "model"))
    out.foreach(s => assert(s.psnr >= 52.0, s"${s.method}: ${s.psnr}")) // model may miss by its margin
    // TAE pays optimization time; traditional pays none
    assert(out.find(_.method == "traditional").get.optTimeS == 0.0)
    assert(out.find(_.method == "tae").get.optTimeS > 0.0)
  }

  test("model method needs no trial compressions and stays competitive in bytes") {
    val f = snaps.head
    val range = f.valueRange
    val candidatesRel = Seq(1e-4, 5e-4, 1e-3, 5e-3, 1e-2)
    val trad = DataDumping.traditionalErrorBound(snaps, candidatesRel, 56.0, LorenzoPredictor)
    val out = DataDumping.dumpOne(0, f, LorenzoPredictor, 56.0, trad * range, candidatesRel.map(_ * range))
    val model = out.find(_.method == "model").get
    val tradS = out.find(_.method == "traditional").get
    assert(model.bytes <= tradS.bytes * 1.5)
  }
}
