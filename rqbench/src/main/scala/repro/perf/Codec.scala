package repro.perf

import repro.analysis.{Metrics => Measure}
import repro.compressor.{Compressor, Predictor}
import repro.core.Field
import repro.data.SciField
import scala.collection.mutable.ArrayBuffer

/** `codec`: the trial-and-error path. Every registry field × predictor ×
  * relative error bound is compressed (`Compressor.compress`, the measured
  * path behind Table II), then written as a blob and decompressed. Fields
  * are at the registry's test dims (1-D to 4-D, 10–35 k points each): the
  * sweep at bench dims takes about 27 s per pass, too long for a run. The
  * compressor does all the work and the model none; the code alphabets run
  * from a handful of codes to thousands, so predict/quantize and Huffman
  * changes each have cases they dominate.
  */
final class Codec extends Workload {
  import Codec._

  private var cases: Seq[Case] = Nil
  /** (compressed bytes, PSNR) per case of the first pass; later passes must repeat them. */
  private var firstPass: Option[Seq[(Long, Double)]] = None
  private var rawBytes = 0L
  private var compressNs = 0L
  private var decompressNs = 0L
  private var allocCompress = 0L
  private var allocDecompress = 0L
  private var allocPoints = 0L
  private val counts = ArrayBuffer.empty[Stages.Counts]
  private var tracedPasses = 0

  def setup(run: Run): Unit = {
    // JIT warm-up: every field and predictor at the middle bound, on the
    // registry's own inputs (seed 0) whatever the run's seed, so that the
    // code the JIT compiles does not depend on the seed
    casesOf(Inputs.generateAll(run, test = true, seed = Some(0L))).filter(_.ebRel == WarmUpRel).foreach { c =>
      val blob = Compressor.compressToBlob(c.field, c.eb, c.predictor)
      Compressor.compress(c.field, c.eb, c.predictor)
      Compressor.decompressBlob(blob)
    }
    cases = casesOf(Inputs.generateAll(run, test = true))
  }

  override def provenance: Seq[(String, Any)] =
    super.provenance :+ ("data_scale" ->
      s"registry test dims, ${cases.map(_.field.size.toLong).sum / (EbRels.length * Inputs.Predictors.length)} points")

  def pass(run: Run): Unit = {
    val outcomes = cases.map(c => roundtrip(run, c))
    if (run.traced) tracedPasses += 1
    firstPass match {
      case None => firstPass = Some(outcomes)
      case Some(ref) =>
        run.op(s"pass ${run.pass} repeats the first pass's sizes and PSNRs")(ref == outcomes)
    }
  }

  /** One case: compress, blob, decompress, then the output checks. */
  private def roundtrip(run: Run, c: Case): (Long, Double) = {
    var outcome = (-1L, Double.NaN)
    run.op(s"codec ${c.spec.id} ${c.predictor.name} rel=${c.ebRel}") {
      val a0 = Alloc.currentThread()
      val t0 = System.nanoTime()
      val res = run.span("compressor.compress")(Compressor.compress(c.field, c.eb, c.predictor))
      val t1 = System.nanoTime()
      val a1 = Alloc.currentThread()
      val blob = run.span("compressor.compress_to_blob")(Compressor.compressToBlob(c.field, c.eb, c.predictor))
      val a2 = Alloc.currentThread()
      val t2 = System.nanoTime()
      val out = run.span("compressor.decompress_blob")(Compressor.decompressBlob(blob))
      val t3 = System.nanoTime()
      val a3 = Alloc.currentThread()
      run.recordOpMs((t3 - t0) / 1e6)
      if (run.traced) {
        allocCompress += a1 - a0
        allocDecompress += a3 - a2
        allocPoints += c.field.size
      } else {
        rawBytes += c.field.size * 8L
        compressNs += t1 - t0
        decompressNs += t3 - t2
      }
      val psnr = Measure.psnr(c.field, out)
      outcome = (res.huffPlusLLBytes, psnr)
      out.dims.sameElements(c.field.dims) &&
        Compressor.maxAbsError(c.field, out) <= c.eb * (1 + 1e-10) &&
        java.util.Arrays.equals(out.data, res.recon.data)
    }
    outcome
  }

  override def replay(run: Run): Unit =
    counts ++= cases.map(c => Stages.replay(run, c.field, c.eb, c.predictor))

  def finish(run: Run): Quality = {
    run.report("compress_MBps") = (rawBytes / 1e6 / (compressNs / 1e9), "MB/s")
    run.report("decompress_MBps") = (rawBytes / 1e6 / (decompressNs / 1e9), "MB/s")
    run.layer("compressor.compress_MBps") = run.report("compress_MBps")._1
    run.layer("compressor.decompress_MBps") = run.report("decompress_MBps")._1
    if (tracedPasses > 0) {
      run.layer("compressor.alloc_B_per_point.compress") = allocCompress.toDouble / allocPoints
      run.layer("compressor.alloc_B_per_point.decompress") = allocDecompress.toDouble / allocPoints
      Stages.addCounts(run, counts.toSeq, tracedPasses)
    }
    val ref = firstPass.getOrElse(Nil)
    run.report("cases") = (ref.length.toDouble, "count")
    Quality(
      Stats.geomean(cases.zip(ref).map { case (c, (bytes, _)) => c.field.size * 8.0 / bytes }),
      Stats.mean(ref.map(_._2).filterNot(_.isInfinite)),
    )
  }
}

object Codec {
  val EbRels: Seq[Double] = Seq(1e-2, 1e-3, 1e-4)
  val WarmUpRel = 1e-3

  final case class Case(spec: SciField, field: Field, predictor: Predictor, ebRel: Double, eb: Double)

  def casesOf(fields: Seq[(SciField, Field)]): Seq[Case] =
    for {
      (spec, f) <- fields
      range = f.valueRange
      p <- Inputs.Predictors
      r <- EbRels
    } yield Case(spec, f, p, r, r * range)
}
