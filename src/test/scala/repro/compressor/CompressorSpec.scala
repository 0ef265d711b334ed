package repro.compressor

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Field
import repro.core.FieldSpec.{FieldCoords, of1d, tabulate}

class CompressorSpec extends AnyFunSuite {

  /** End-to-end compression ratio vs 8-byte doubles, Huffman only. */
  private def ratioHuff(res: CompressionResult): Double = res.n * 8.0 / res.huffBytes

  private def smooth3d(seed: Long = 1): Field = {
    val dims = Array(16, 20, 24)
    val grid = Field(new Array[Double](dims.product), dims)
    tabulate(dims) { i =>
      val c = grid.coords(i)
      math.sin(c(0) * 0.3) * math.cos(c(1) * 0.2) + 0.1 * c(2)
    }
  }

  for (p <- Predictor.all) {
    test("blob roundtrip matches in-memory reconstruction (" + p.name + ")") {
      val f = smooth3d()
      val eb = 1e-3
      val res = Compressor.compress(f, eb, p)
      val dec = Compressor.decompressBlob(res.blob)
      assert(dec.dims.toSeq == f.dims.toSeq)
      assert(dec.data.toSeq == res.recon.data.toSeq)
      assert(Compressor.maxAbsError(f, dec) <= eb * (1 + 1e-9))
    }

    test("compressToBlob is compress's blob (" + p.name + ")") {
      val f = smooth3d()
      assert(Compressor.compressToBlob(f, 1e-3, p).toSeq == Compressor.compress(f, 1e-3, p).blob.toSeq)
    }

    test("smooth data compresses with ratio > 4 (" + p.name + ")") {
      val f = smooth3d()
      val res = Compressor.compress(f, 1e-3 * f.valueRange, p)
      assert(ratioHuff(res) > 4.0, s"ratio=${ratioHuff(res)}")
    }

    test("bit-rate decreases as error bound grows (" + p.name + ")") {
      val f = smooth3d()
      val rates = Seq(1e-5, 1e-4, 1e-3, 1e-2).map { r =>
        Compressor.compress(f, r * f.valueRange, p).huffBitRate
      }
      assert(rates == rates.sorted.reverse, rates.toString)
    }

    test("p0 increases with error bound (" + p.name + ")") {
      val f = smooth3d()
      val p0s = Seq(1e-5, 1e-3, 1e-1).map(r => Compressor.compress(f, r * f.valueRange, p).p0)
      assert(p0s == p0s.sorted, p0s.toString)
    }
  }

  test("sizes: huffBytes accounts payload + codebook + side + unpredictables") {
    val f = smooth3d()
    val res = Compressor.compress(f, 1e-3, LorenzoPredictor)
    val expect = (res.huffPayloadBits + 7) / 8 + res.codebookBytes + res.sideBytes + res.unpredCount * 8L
    assert(res.huffBytes == expect)
  }

  test("blob size is close to huffBytes accounting") {
    val f = smooth3d()
    val res = Compressor.compress(f, 1e-3, LorenzoPredictor)
    // the blob adds only the fixed header fields to the accounted size
    assert(res.blob.length == res.huffBytes + headerBytes(f.dims.length))
  }

  /** Whether `dec` holds the bits of `recon`, NaNs included. */
  private def sameBits(dec: Field, recon: Field): Boolean =
    dec.dims.toSeq == recon.dims.toSeq &&
      dec.data.indices.forall(i => java.lang.Double.doubleToRawLongBits(dec.data(i)) ==
        java.lang.Double.doubleToRawLongBits(recon.data(i)))

  /** The header fields of a blob (ndim, dims, eb, predictor id, the
    * unpredictable count and the side length); every other byte is a
    * section that `huffBytes` counts.
    */
  private def headerBytes(ndim: Int): Int = 24 + 4 * ndim

  /** Every predictor × 1–4-D shape × REL 1e-2…1e-6: the blob decodes to
    * `recon` bit for bit, `recon` is within eb, and the blob is exactly
    * `huffBytes` plus the header fields.
    */
  test("blob roundtrip property: bits, bound, size") {
    val shapes = Seq(Array(5000), Array(60, 70), Array(1, 70), Array(16, 20, 24), Array(1, 20, 1),
      Array(6, 7, 8, 9), Array(1, 1, 1, 9))
    val rels = Seq(1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    for (dims <- shapes) {
      val rnd = new java.util.Random(dims.product)
      val f = tabulate(dims)(i => math.sin(i * 0.05) * 10 + rnd.nextGaussian() * 0.1)
      for (p <- Predictor.all; rel <- rels) {
        val what = s"${p.name} ${dims.mkString("x")} rel=$rel"
        val eb = rel * f.valueRange
        val res = Compressor.compress(f, eb, p)
        assert(sameBits(Compressor.decompressBlob(res.blob), res.recon), what)
        assert(Compressor.maxAbsError(f, res.recon) <= eb * (1 + 1e-10), what)
        assert(res.blob.length == res.huffBytes + headerBytes(dims.length), what)
      }
    }
  }

  for (p <- Predictor.all) {
    test(s"NaN and infinities escape (${p.name})") {
      val eb = 1e-3
      val base = smooth3d().data
      for (dims <- Seq(Array(4000), Array(16, 20, 24), Array(6, 7, 8, 9));
           bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
        val what = s"${dims.mkString("x")} with $bad"
        val data = base.take(dims.product)
        data(dims.product / 3) = bad
        val f = Field(data, dims)
        val res = Compressor.compress(f, eb, p)
        assert(sameBits(Compressor.decompressBlob(res.blob), res.recon), what)
        assert(Compressor.maxAbsError(f, res.recon) <= eb, what)
        assert(res.unpredCount > 0, what)
      }
    }

    test(s"constant fields have error 0 (${p.name})") {
      for (dims <- Seq(Array(1000), Array(30, 40), Array(3, 4, 5, 6))) {
        val f = Field(Array.fill(dims.product)(3.14), dims)
        // the REL bound of a constant field, as the experiments set it
        val res = Compressor.compress(f, math.max(1e-3 * f.valueRange, 1e-300), p)
        assert(sameBits(Compressor.decompressBlob(res.blob), res.recon), dims.mkString("x"))
        assert(Compressor.maxAbsError(f, res.recon) == 0.0, dims.mkString("x"))
      }
    }
  }

  /** Brownian data: Lorenzo's 1-D delta decorrelates it fully, so large
    * error bounds give the genuinely zero-dominated regime (Fig. 3's right
    * side) that the lossless stage exploits.
    */
  private def brownian(n: Int = 32768, seed: Long = 13): Field = {
    val rnd = new java.util.Random(seed)
    var acc = 0.0
    of1d(Array.fill(n) { acc += rnd.nextGaussian(); acc })
  }

  test("losslessGain ~1 at low error bound, > 2 at high error bound") {
    val f = brownian()
    // the lossless stage's gain over the Huffman payload
    def gain(r: CompressionResult): Double = r.huffPayloadBits / 8.0 / r.huffLLBytes
    val lo = Compressor.compress(f, 1e-6 * f.valueRange, LorenzoPredictor)
    val hi = Compressor.compress(f, 5e-2 * f.valueRange, LorenzoPredictor)
    assert(gain(lo) < 1.6, s"low-eb gain ${gain(lo)}")
    assert(gain(hi) > 2.0, s"high-eb gain ${gain(hi)}")
  }

  test("compression of constant field is extremely compact") {
    val f = of1d(Array.fill(10000)(3.14))
    val res = Compressor.compress(f, 1e-6, LorenzoPredictor)
    assert(res.ratioHuffLL > 50)
    assert(Compressor.maxAbsError(f, res.recon) <= 1e-6)
  }

  test("maxAbsError is +∞ when exactly one side is NaN") {
    val f = of1d(Array(1.0, 2.0, 3.0))
    assert(Compressor.maxAbsError(f, of1d(Array(1.0, Double.NaN, 3.0))) == Double.PositiveInfinity)
    assert(Compressor.maxAbsError(of1d(Array(1.0, Double.NaN, 3.0)), f) == Double.PositiveInfinity)
  }

  test("maxAbsError counts equal values as 0, ±∞ and NaN included") {
    val f = of1d(Array(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN, 1.0))
    assert(Compressor.maxAbsError(f, of1d(f.data.clone())) == 0.0)
    assert(Compressor.maxAbsError(f, of1d(f.data.updated(3, 1.25))) == 0.25)
    assert(Compressor.maxAbsError(f, of1d(f.data.updated(0, 1.0))) == Double.PositiveInfinity)
  }

  test("maxAbsError rejects fields of different sizes") {
    intercept[IllegalArgumentException](
      Compressor.maxAbsError(of1d(Array(1.0, 2.0)), of1d(Array(1.0))))
  }

  test("1-D Brownian data: error bound holds and ratio is moderate") {
    val rnd = new java.util.Random(13)
    var acc = 0.0
    val f = of1d(Array.fill(20000) { acc += rnd.nextGaussian(); acc })
    val eb = 1e-3 * f.valueRange
    Predictor.all.foreach { p =>
      val res = Compressor.compress(f, eb, p)
      assert(Compressor.maxAbsError(f, res.recon) <= eb * (1 + 1e-9), p.name)
      assert(ratioHuff(res) > 1.5, s"${p.name}: ${ratioHuff(res)}")
    }
  }

  test("escape-heavy field still satisfies the bound end to end") {
    val rnd = new java.util.Random(14)
    val f = of1d(Array.fill(3000)(rnd.nextDouble() * 1e12))
    val eb = 1e-9
    val res = Compressor.compress(f, eb, LorenzoPredictor)
    assert(res.unpredCount > 0)
    assert(Compressor.maxAbsError(f, res.recon) <= eb * (1 + 1e-9))
    assert(Compressor.decompressBlob(res.blob).data.toSeq == res.recon.data.toSeq)
  }

  /** A small 3-D blob with escapes, so every header section is non-empty. */
  private def headerBlob(p: Predictor): Array[Byte] = {
    val f = smooth3d()
    val data = f.data.clone()
    Seq(5, 777, 4000).foreach(i => data(i) = 1e12)
    Compressor.compress(Field(data, f.dims), 1e-3, p).blob
  }

  /** A 6×7×8 blob of values spanning many magnitudes, with escapes. */
  private def mixedBlob(p: Predictor): Array[Byte] = {
    val res = Compressor.compress(LorenzoStencilSpec.mixedField(Array(6, 7, 8), 5L), 1e-2, p)
    assert(res.unpredCount > 0)
    res.blob
  }

  for (p <- Predictor.all) {
    test(s"decompressBlob rejects every truncation of the blob (${p.name})") {
      for (blob <- Seq(headerBlob(p), mixedBlob(p)); k <- 0 until blob.length) {
        val e = intercept[Exception](Compressor.decompressBlob(blob.take(k)))
        assert(e.isInstanceOf[IllegalArgumentException], s"cut at $k of ${blob.length}: $e")
      }
    }

    test(s"every single-bit flip of a blob decodes or raises IllegalArgumentException (${p.name})") {
      val blob = mixedBlob(p)
      // on its own thread, so a decoder that loops fails the test instead of hanging the run
      val fuzz = scala.concurrent.Future {
        (0 until blob.length * 8).foreach { bit =>
          val bad = blob.clone()
          bad(bit / 8) = (bad(bit / 8) ^ (1 << bit % 8)).toByte
          try Compressor.decompressBlob(bad)
          catch { case _: IllegalArgumentException => case e: Exception => fail(s"bit $bit of ${blob.length} bytes: $e") }
        }
      }(scala.concurrent.ExecutionContext.global)
      scala.concurrent.Await.result(fuzz, scala.concurrent.duration.Duration(120, "s"))
    }

    test(s"decompressBlob rejects forged header counts (${p.name})") {
      val blob = headerBlob(p)
      val bb = java.nio.ByteBuffer.wrap(blob)
      val ndim = bb.getInt(0)
      val nUnpred = bb.getInt(16 + 4 * ndim)
      assert(ndim == 3 && nUnpred > 0)
      val sideAt = 20 + 4 * ndim + 8 * nUnpred
      val forged = Seq(
        "ndim 0" -> (0, 0), "ndim -1" -> (0, -1), "ndim Int.MaxValue" -> (0, Int.MaxValue),
        "ndim past the blob" -> (0, blob.length / 4),
        "dim 0" -> (4, 0), "dim -3" -> (8, -3), "dims over Int.MaxValue points" -> (4, 1 << 30),
        "predictor id 3" -> (12 + 4 * ndim, 3), "predictor id -1" -> (12 + 4 * ndim, -1),
        "unpredictable count -1" -> (16 + 4 * ndim, -1),
        "unpredictable count Int.MaxValue" -> (16 + 4 * ndim, Int.MaxValue),
        "unpredictable count past the blob" -> (16 + 4 * ndim, (blob.length - 20 - 4 * ndim) / 8 + 1),
        "side length -1" -> (sideAt, -1), "side length Int.MaxValue" -> (sideAt, Int.MaxValue),
        "side length past the blob" -> (sideAt, blob.length - sideAt - 4 + 1),
      )
      // one more unpredictable value after the last, with the count raised to match
      val spliced = blob.take(sideAt) ++ new Array[Byte](8) ++ blob.drop(sideAt)
      java.nio.ByteBuffer.wrap(spliced).putInt(16 + 4 * ndim, nUnpred + 1)
      val inputs = forged.map { case (what, (at, value)) =>
        val bad = blob.clone()
        java.nio.ByteBuffer.wrap(bad).putInt(at, value)
        what -> bad
      } :+ ("an unpredictable value no escape code uses" -> spliced)
      inputs.foreach { case (what, bad) =>
        val e = intercept[Exception](Compressor.decompressBlob(bad))
        assert(e.isInstanceOf[IllegalArgumentException], s"$what: $e")
      }
    }
  }

  /** A predictor outside [[Predictor.all]]: Lorenzo under `name`, noting
    * whether it ran.
    */
  private final class StubPredictor(val name: String) extends Predictor {
    var ran = false
    def compress(field: Field, quant: Quantizer): PredictorOutput = { ran = true; LorenzoPredictor.compress(field, quant) }
    def decompress(dims: Array[Int], quant: Quantizer, codes: Array[Int],
                   unpredictable: Array[Double], side: Array[Byte]): Field =
      LorenzoPredictor.decompress(dims, quant, codes, unpredictable, side)
  }

  test("compress rejects a predictor outside Predictor.all before running it, a namesake of one included") {
    for (stub <- Seq(new StubPredictor("stub"), new StubPredictor(LorenzoPredictor.name))) {
      intercept[IllegalArgumentException](Compressor.compress(smooth3d(), 1e-3, stub))
      intercept[IllegalArgumentException](Compressor.compressToBlob(smooth3d(), 1e-3, stub))
      assert(!stub.ran, stub.name)
    }
  }

  for (p <- Predictor.all; dims <- Seq(Array(1), Array(1, 1), Array(1, 1, 1))) {
    test(s"1-point field ${dims.mkString("x")} compresses and roundtrips (${p.name})") {
      val f = Field(Array(2.5), dims)
      val eb = 1e-3
      val res = Compressor.compress(f, eb, p)
      assert(Compressor.maxAbsError(f, res.recon) <= eb * (1 + 1e-9))
      assert(Compressor.decompressBlob(res.blob).data.toSeq == res.recon.data.toSeq)
      if (p == InterpolationPredictor) { // the one point is an anchor: no codes at all
        assert(res.huffPayloadBits == 0 && res.codebookBytes == Huffman.codebookBytes(0))
      }
    }
  }
}
