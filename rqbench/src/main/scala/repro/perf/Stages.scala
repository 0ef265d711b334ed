package repro.perf

import repro.compressor.{Huffman, Lossless, Predictor, Quantizer, Rle}
import repro.core.Field
import repro.data.{SciData, SciField}

/** Inputs shared by the workloads. */
object Inputs {
  /** The registry field with its seed offset by the workload seed; seed 0
    * reproduces the registry exactly.
    */
  def seeded(spec: SciField, seed: Long): SciField = spec.copy(seed = spec.seed + seed)

  /** Generates every registry field at bench (or test) dims, timing the
    * generation as the `data` layer. `seed` overrides the run's seed.
    */
  def generateAll(run: Run, test: Boolean, seed: Option[Long] = None): Seq[(SciField, Field)] = {
    val t0 = System.nanoTime()
    val out = SciData.fields.map { s =>
      val spec = seeded(s, seed.getOrElse(run.seed))
      spec -> spec.generate(test)
    }
    run.generateNs += System.nanoTime() - t0
    out
  }

  val Predictors: Seq[Predictor] = Predictor.all
}

/** `Compressor.compress` and `Compressor.decompressBlob` replayed as their
  * public stage calls, one span per stage, for the traced run's per-layer
  * times. The replay repeats the compressor's own steps and checks that it
  * decodes back to the same codes.
  */
object Stages {

  final case class Counts(points: Long, distinctCodes: Long, payloadBits: Long, escapes: Long)

  def replay(run: Run, f: Field, eb: Double, p: Predictor): Counts = {
    val quant = new Quantizer(eb)
    val out = run.span(s"compressor.predict.${p.name}")(p.compress(f, quant))
    // the boxed histogram is part of compress but has no public stage of its own
    val freqs = {
      val m = scala.collection.mutable.Map.empty[Int, Long].withDefaultValue(0L)
      out.codes.foreach(c => m(c) += 1)
      m.toMap
    }
    val lens = run.span("compressor.huff_build")(Huffman.codeLengths(freqs))
    val blob = run.span("compressor.huff_encode")(Huffman.encode(out.codes))
    val payload = java.util.Arrays.copyOfRange(blob, Huffman.codebookBytes(freqs.size), blob.length)
    run.span("compressor.deflate")(Lossless.compress(payload))
    run.span("compressor.rle")(Rle.bitsAfterZeroRunRle(out.codes, lens))
    val codes = run.span("compressor.huff_decode")(Huffman.decode(blob))
    val recon = run.span(s"compressor.reconstruct.${p.name}")(
      p.decompress(f.dims, new Quantizer(eb), codes, out.unpredictable, out.side))
    run.op(s"replay ${p.name} eb=$eb decodes to the compressor's codes and reconstruction") {
      java.util.Arrays.equals(codes, out.codes) && java.util.Arrays.equals(recon.data, out.recon.data)
    }
    val bits = freqs.iterator.map { case (s, c) => c * lens(s) }.sum
    Counts(f.size.toLong, freqs.size.toLong, bits, out.unpredictable.length.toLong)
  }

  /** Per-pass counts of the replayed cases, as per-layer figures. */
  def addCounts(run: Run, counts: Seq[Counts], tracedPasses: Int): Unit = {
    run.layer("compressor.points") = counts.map(_.points).sum.toDouble / tracedPasses
    run.layer("compressor.distinct_codes") = counts.map(_.distinctCodes).sum.toDouble / tracedPasses
    run.layer("compressor.payload_bits") = counts.map(_.payloadBits).sum.toDouble / tracedPasses
    run.layer("compressor.escapes") = counts.map(_.escapes).sum.toDouble / tracedPasses
  }
}
