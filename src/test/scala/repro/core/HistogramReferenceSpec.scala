package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.{Huffman, LorenzoPredictor, Predictor, Quantizer}
import repro.data.SciData

/** The model's code histogram against the `Map`-based one it replaced, kept
  * here as the reference: a `Map[Int, Long]` of code counts built as a
  * mutable `HashMap` then `toMap`, the drift applied by copying it into a
  * mutable map, and the bit-rates summed in the map's iteration order.
  *
  * The model counts the codes first and then moves the drift's counts
  * ([[Feedback.applyDrift]] on the histogram; the analytic path counts
  * straight from the errors), where the reference moves codes.
  *
  * On the 51 test-dim models over REL 1e-6…10, the per-symbol counts, p0,
  * the distinct count and the escape share equal the reference exactly; the
  * bit-rates, now summed in ascending slot order, agree within 1e-12
  * relative.
  */
class HistogramReferenceSpec extends AnyFunSuite {
  import HistogramReferenceSpec.MapHistogram

  private def mapHistogram(codes: Array[Int]): MapHistogram = {
    val h = Huffman.histogram(codes)
    val m = scala.collection.mutable.HashMap.empty[Int, Long]
    h.presentSlots.foreach(k => m(h.symbol(k)) = h.counts(k).toLong)
    MapHistogram(m.toMap, codes.length.toLong)
  }

  private def mapDrift(hist: MapHistogram, rate: Double): MapHistogram = {
    val central = hist.counts.getOrElse(0, 0L)
    val moved = Feedback.moved(central, rate)
    if (moved == 0) return hist
    val half = moved / 2
    val m = scala.collection.mutable.Map[Int, Long]() ++ hist.counts
    m(0) = central - moved
    m(1) = m.getOrElse(1, 0L) + half
    m(-1) = m.getOrElse(-1, 0L) + (moved - half)
    MapHistogram(m.toMap.filter(_._2 > 0), hist.total)
  }

  private def mapBitRate(hist: MapHistogram, len: Double => Double): Double = {
    var b = 0.0
    hist.probabilities.foreach { case (_, q) => if (q > 0) b += q * len(q) }
    if (hist.distinct > 1) b += (hist.distinct - 1) / (2.0 * hist.total * EncoderModel.Log2)
    b
  }

  private def log2(q: Double): Double = math.log(q) / EncoderModel.Log2

  private def relDiff(a: Double, b: Double): Double = math.abs(a - b) / math.max(math.abs(b), Double.MinPositiveValue)

  /** Relative error bounds 1e-6 … 10, half a decade apart (ErrVarianceSpec's). */
  private val ebRels: Seq[Double] = (-12 to 2).map(k => math.pow(10, k / 2.0))

  test("code histograms equal the Map-based reference on the 51 test-dim models") {
    var drifted = 0
    var escapes = 0
    for {
      spec <- SciData.fields
      f = spec.generate(test = true)
      p <- Predictor.all
      model = RQModel.build(f, p)
      rel <- ebRels
    } {
      val eb = rel * f.valueRange
      val s = model.sample
      val (raw, rate, hist) =
        if (p == LorenzoPredictor) {
          val sim = PatchSim.simulate(s.patches, eb)
          val rate = model.patchDriftRate(sim, eb)
          (sim.codes, rate, Feedback.applyDrift(Huffman.histogram(sim.codes), rate))
        } else {
          val rate = model.driftRate(ErrorDistribution.centralBin(s.errors, eb), eb)
          (s.errors.map(Histogram.code(_, 2 * eb)), rate, Histogram.fromErrors(s.errors, eb, rate))
        }
      val ref = mapDrift(mapHistogram(raw), rate)
      val where = s"${spec.id}/${p.name} rel=$rel"
      if (Feedback.moved(raw.count(_ == 0).toLong, rate) > 0) drifted += 1
      if (ref.counts.contains(Quantizer.Escape)) escapes += 1

      assert(hist.total == ref.total, where)
      ref.counts.foreach { case (c, n) => assert(hist.count(c) == n, s"$where code $c") }
      assert(hist.distinct == ref.distinct, where)
      assert(hist.p0 == ref.p0, where)
      assert(hist.count(Quantizer.Escape).toDouble / hist.total == ref.probabilities.getOrElse(Quantizer.Escape, 0.0), where)

      val est = model.estimate(eb)
      assert(est.p0 == ref.p0, where)
      val refHuff = mapBitRate(ref, q => math.max(1.0, -log2(q)))
      val refLL = math.min(refHuff, mapBitRate(ref, q => -log2(q)))
      assert(relDiff(est.huffBitRate, refHuff) <= 1e-12, s"$where huffBitRate ${est.huffBitRate} vs $refHuff")
      assert(relDiff(est.llBitRate, refLL) <= 1e-12, s"$where llBitRate ${est.llBitRate} vs $refLL")
    }
    assert(drifted > 0, "no case in the drift regime")
    assert(escapes > 0, "no case with escape codes")
  }
}

object HistogramReferenceSpec {

  final case class MapHistogram(counts: Map[Int, Long], total: Long) {
    def p0: Double = counts.getOrElse(0, 0L).toDouble / total
    def probabilities: Map[Int, Double] = counts.map { case (c, n) => c -> n.toDouble / total }
    def distinct: Int = counts.size
  }
}
