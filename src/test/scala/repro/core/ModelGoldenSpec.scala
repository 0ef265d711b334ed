package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.{LorenzoPredictor, Predictor}
import repro.data.SciData
import repro.usecases.InSitu

/** The model's outputs, reduced to exact bit patterns, one quantity a line:
  *
  *   - for each of the 51 (registry field at test dims × predictor) models:
  *     the SHA-256 of the sampled errors and patches, every [[RQEstimate]]
  *     field at relative error bounds 1e-1 to 1e-4, and the bounds chosen by
  *     `errorBoundForPsnr(70)`, `errorBoundForBitRate(2.0)` and, in the
  *     high-error-bound regime of few codes, `errorBoundForBitRate(0.5)`
  *     with and without the lossless stage;
  *   - for 4 RTM partitions at 24×32×32: the `InSitu.optimize` allocation at
  *     two variance budgets and the `uniformBaseline` bound at each.
  *
  * Doubles are written as the hex of `doubleToLongBits`, so a change in the
  * last bit of any estimate shows.
  */
object ModelGolden {
  val Resource = "/repro/core/model-golden.csv"
  val Header = "case,quantity,value"
  val EbRels: Seq[Double] = Seq(1e-1, 1e-2, 1e-3, 1e-4)
  val PsnrTarget = 70.0
  val BitRateTargets: Seq[Double] = Seq(2.0, 0.5)

  private def bits(d: Double): String = f"${java.lang.Double.doubleToLongBits(d)}%016x"

  private def sha256(chunks: Iterator[Array[Double]]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    chunks.foreach { a =>
      val bb = java.nio.ByteBuffer.allocate(a.length * 8)
      a.foreach(bb.putDouble)
      md.update(bb.array())
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def estimateRows(prefix: String, e: RQEstimate): Seq[(String, String)] = Seq(
    s"$prefix.eb" -> bits(e.eb),
    s"$prefix.p0" -> bits(e.p0),
    s"$prefix.huffBitRate" -> bits(e.huffBitRate),
    s"$prefix.llBitRate" -> bits(e.llBitRate),
    s"$prefix.errVariance" -> bits(e.errVariance),
    s"$prefix.psnr" -> bits(e.psnr),
    s"$prefix.ssim" -> bits(e.ssim),
    s"$prefix.estTotalBytes" -> e.estTotalBytes.toString,
  )

  def modelRows(): Seq[String] =
    for {
      spec <- SciData.fields
      f = spec.generate(test = true)
      p <- Predictor.all
      model = RQModel.build(f, p)
      (quantity, value) <- {
        val s = model.sample
        Seq(
          "errors_sha256" -> sha256(Iterator.single(s.errors)),
          "patches_sha256" -> sha256(s.patches.iterator.map(_.data)),
        ) ++ EbRels.flatMap(rel => estimateRows(s"rel=$rel", model.estimate(rel * f.valueRange))) ++
          Seq(s"errorBoundForPsnr($PsnrTarget)" -> bits(model.errorBoundForPsnr(PsnrTarget))) ++
          BitRateTargets.flatMap(b => Seq(
            s"errorBoundForBitRate($b)" -> bits(model.errorBoundForBitRate(b)),
            s"errorBoundForBitRate($b,huffman)" -> bits(model.errorBoundForBitRate(b, withLossless = false)),
          ))
      }
    } yield s"${spec.id}/${p.name},$quantity,$value"

  def inSituRows(): Seq[String] = {
    val parts = (0 until 4).map(i => SciData.rtmSnapshot3d(800.0 + 600.0 * i)(Array(24, 32, 32), 77 + i))
    val models = parts.map(f => RQModel.build(f, LorenzoPredictor))
    val grids = parts.map(f => Seq(1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2).map(_ * f.valueRange).toArray)
    Seq(2, 4).flatMap { g =>
      val vStar = models.zip(grids).map { case (m, grid) => m.estimate(grid(g)).errVariance }.sum
      val alloc = InSitu.optimize(models, vStar, grids)
      val quantities =
        alloc.ebs.toSeq.zipWithIndex.map { case (e, t) => s"eb$t" -> bits(e) } ++ Seq(
          "estBits" -> bits(alloc.estBits),
          "estVariance" -> bits(alloc.estVariance),
          "uniformBaseline" -> bits(InSitu.uniformBaseline(models, vStar, grids.head)),
        )
      quantities.map { case (q, v) => s"insitu/budget=grid$g,$q,$v" }
    }
  }

  def rows(): Seq[String] = modelRows() ++ inSituRows()

  def recorded(): Seq[String] = {
    val src = scala.io.Source.fromInputStream(getClass.getResourceAsStream(Resource), "UTF-8")
    try src.getLines().toList finally src.close()
  }
}

class ModelGoldenSpec extends AnyFunSuite {

  test("every sample, estimate, inversion and in-situ allocation matches the recorded bits") {
    val recorded = ModelGolden.recorded()
    assert(recorded.head == ModelGolden.Header)
    val expected = recorded.tail
    val actual = ModelGolden.rows()
    assert(actual.length == expected.length, s"${actual.length} rows, ${expected.length} recorded")
    val diffs = expected.zip(actual).filter { case (e, a) => e != a }
    if (diffs.nonEmpty) fail(s"${diffs.length} rows differ:" +
      diffs.take(8).map { case (e, a) => s"\n  recorded $e\n  actual   $a" }.mkString)
  }
}
