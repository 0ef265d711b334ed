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
  *     high-error-bound regime of few codes, `errorBoundForBitRate(0.5)`;
  *   - for 4 RTM partitions at 24×32×32: the `InSitu.optimize` allocation at
  *     two variance budgets.
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
          BitRateTargets.map(b => s"errorBoundForBitRate($b)" -> bits(model.errorBoundForBitRate(b)))
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
        )
      quantities.map { case (q, v) => s"insitu/budget=grid$g,$q,$v" }
    }
  }

  def rows(): Seq[String] = modelRows() ++ inSituRows()

  def recorded(): Seq[String] = {
    val src = scala.io.Source.fromInputStream(getClass.getResourceAsStream(Resource), "UTF-8")
    try src.getLines().toList finally src.close()
  }

  /** The quantity a row measures, without its error bound: `rel=0.1.p0` → `p0`. */
  private def kind(quantity: String): String = quantity.replaceFirst("^rel=[^.]*\\.[^.]*\\.", "")

  /** Compares the current rows with the recorded ones and prints the moved
    * rows, grouped by model and then by quantity, followed by their counts
    * per predictor and per quantity; with `--write`, also rewrites the
    * recorded file under `src/test/resources`. Run from the repository root:
    *
    *   sbt "Test/runMain repro.core.ModelGolden"          # print the diff
    *   sbt "Test/runMain repro.core.ModelGolden --write"  # and record it
    */
  def main(args: Array[String]): Unit = {
    val unknown = args.filterNot(_ == "--write")
    require(unknown.isEmpty, s"unknown arguments: ${unknown.mkString(" ")}; the only option is --write")
    // (case, quantity) -> value
    def parse(rows: Seq[String]): Seq[((String, String), String)] = rows.map { r =>
      val (i, j) = (r.indexOf(','), r.lastIndexOf(','))
      (r.substring(0, i), r.substring(i + 1, j)) -> r.substring(j + 1)
    }
    val actual = rows()
    val before = parse(recorded().tail).toMap
    val after = parse(actual)
    val afterMap = after.toMap
    val moved = after.collect { case (k, v) if !before.get(k).contains(v) => k }
    val gone = before.keys.filterNot(afterMap.contains).toSeq.sorted
    moved.groupBy(_._1).toSeq.sortBy(_._1).foreach { case (model, ks) =>
      println(s"$model: ${ks.length} moved")
      ks.foreach { case k @ (_, q) => println(s"  $q: ${before.getOrElse(k, "-")} -> ${afterMap(k)}") }
    }
    gone.foreach { case (c, q) => println(s"$c: $q no longer produced") }
    def counts(label: String, by: ((String, String)) => String): Unit =
      println(s"$label: " + moved.groupBy(by).toSeq.sortBy(-_._2.length)
        .map { case (g, ks) => s"$g ${ks.length}" }.mkString(", "))
    println(s"${moved.length} of ${actual.length} rows moved, ${gone.length} recorded rows gone")
    if (moved.nonEmpty) {
      counts("per predictor", { case (c, _) => c.substring(c.lastIndexOf('/') + 1) })
      counts("per quantity", { case (_, q) => kind(q) })
    }
    if (args.contains("--write")) {
      val out = java.nio.file.Paths.get("src/test/resources" + Resource)
      java.nio.file.Files.write(out, (Header +: actual).map(_ + "\n").mkString.getBytes("UTF-8"))
      println(s"wrote ${actual.length} rows to $out")
    }
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
