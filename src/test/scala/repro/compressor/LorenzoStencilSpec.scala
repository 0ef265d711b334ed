package repro.compressor

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.LorenzoStencilSpec.{bits, foreachPoint, mixedField, stencilAt}
import repro.core.{Field, Sampler}

/** Pins the Lorenzo stencil table and row scan bit for bit against the
  * direct definition: every subset mask of the dims, in ascending order,
  * summed from 0.0 at each point. The golden CSVs cover only the registry's
  * test dims; this spec covers extent-1 dims, 1-point fields and 4-D.
  */
class LorenzoStencilSpec extends AnyFunSuite {

  /** The mask-loop Lorenzo prediction, kept as the reference definition. */
  private def referencePredict(buf: Array[Double], coords: Array[Int], strides: Array[Int]): Double = {
    val ndim = strides.length
    var idx = 0
    var i = 0
    while (i < ndim) { idx += coords(i) * strides(i); i += 1 }
    var pred = 0.0
    var mask = 1
    while (mask < (1 << ndim)) {
      var ok = true
      var off = 0
      var d = 0
      while (d < ndim && ok) {
        if ((mask & (1 << d)) != 0) {
          if (coords(d) == 0) ok = false else off += strides(d)
        }
        d += 1
      }
      if (ok) {
        val sign = if (Integer.bitCount(mask) % 2 == 1) 1.0 else -1.0
        pred += sign * buf(idx - off)
      }
      mask += 1
    }
    pred
  }

  /** Reference compressor: the row-major odometer predicting from the
    * reconstruction through [[referencePredict]].
    */
  private def referenceCompress(f: Field, quant: Quantizer): (Array[Int], Array[Double], Array[Double]) = {
    val recon = new Array[Double](f.size)
    val codes = new Array[Int](f.size)
    val unpred = Array.newBuilder[Double]
    foreachPoint(f.dims) { (idx, coords) =>
      val pred = referencePredict(recon, coords, f.strides)
      val v = f.data(idx)
      val code = quant.code(pred, v)
      codes(idx) = code
      if (code == Quantizer.Escape) { unpred += v; recon(idx) = v }
      else recon(idx) = quant.reconstruct(pred, code)
    }
    (codes, unpred.result(), recon)
  }

  private val shapes: Seq[Array[Int]] = Seq(
    Array(1), Array(7), Array(1, 5), Array(5, 1), Array(5, 1, 3), Array(2, 1, 1, 4),
    Array(1, 1, 1, 1), Array(3, 4, 5, 6), Array(1, 6, 1, 5), Array(4, 7, 1),
  )

  for (dims <- shapes; seed <- Seq(1L, 2L)) {
    val name = s"${dims.mkString("x")} seed $seed"

    test(s"$name: full-scan errors equal data minus the reference prediction") {
      val f = mixedField(dims, seed)
      val expected = new Array[Double](f.size)
      foreachPoint(dims) { (idx, coords) =>
        expected(idx) = f.data(idx) - referencePredict(f.data, coords, f.strides)
      }
      assert(bits(Sampler.fullErrors(f, LorenzoPredictor)) == bits(expected))
    }

    test(s"$name: predictAt equals the reference prediction at every point") {
      val f = mixedField(dims, seed)
      val stencils = LorenzoPredictor.Stencils(dims)
      foreachPoint(dims) { (idx, coords) =>
        val got = stencilAt(stencils, coords).predict(f.data, idx)
        val want = referencePredict(f.data, coords, f.strides)
        assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want),
          coords.mkString(","))
      }
    }

    for (eb <- Seq(1e-6, 1e-2, 10.0)) {
      test(s"$name eb $eb: compress and decompress equal the reference odometer loop") {
        val f = mixedField(dims, seed)
        val quant = new Quantizer(eb)
        val (codes, unpred, recon) = referenceCompress(f, quant)
        val out = LorenzoPredictor.compress(f, quant)
        assert(out.codes.toSeq == codes.toSeq)
        assert(bits(out.unpredictable) == bits(unpred))
        assert(bits(out.recon.data) == bits(recon))
        val dec = LorenzoPredictor.decompress(dims, quant, out.codes, out.unpredictable, out.side)
        assert(bits(dec.data) == bits(recon))
      }
    }
  }

  test("the shapes above exercise escapes") {
    val f = mixedField(Array(3, 4, 5, 6), 1L)
    assert(LorenzoPredictor.compress(f, new Quantizer(1e-6)).unpredictable.nonEmpty)
  }

  test("each pattern's stencil lists the masks that avoid the pattern, in mask order") {
    val dims = Array(3, 4, 5)
    val st = LorenzoPredictor.Stencils(dims)
    val strides = Field.strides(dims)
    for (pattern <- 0 until 8) {
      val masks = (1 until 8).filter(m => (m & pattern) == 0)
      assert(st(pattern).offs.toSeq == masks.map(m => (0 until 3).filter(d => (m & (1 << d)) != 0).map(strides(_)).sum))
      assert(st(pattern).signs.toSeq == masks.map(m => if (Integer.bitCount(m) % 2 == 1) 1.0 else -1.0))
    }
    assert(st(7).offs.isEmpty)
  }

  test("foreachRow visits every row once with its boundary stencils") {
    for (dims <- shapes) {
      val st = LorenzoPredictor.Stencils(dims)
      val last = dims.length - 1
      var next = 0
      st.foreachRow { (start, len, head, body, outer) =>
        assert(start == next && len == dims(last))
        val coords = Field(new Array[Double](dims.product), dims).coords(start)
        assert(outer.toSeq == coords.toSeq.take(last))
        assert(head eq stencilAt(st, coords))
        if (len > 1) { coords(last) = 1; assert(body eq stencilAt(st, coords)) }
        next = start + len
      }
      assert(next == dims.product, dims.mkString("x"))
    }
  }
}

object LorenzoStencilSpec {

  /** Calls `f(idx, coords)` for every point in row-major order. */
  def foreachPoint(dims: Array[Int])(f: (Int, Array[Int]) => Unit): Unit = {
    val coords = new Array[Int](dims.length)
    var idx = 0
    while (idx < dims.product) {
      f(idx, coords)
      var d = dims.length - 1
      var carry = true
      while (d >= 0 && carry) {
        coords(d) += 1
        if (coords(d) == dims(d)) { coords(d) = 0; d -= 1 } else carry = false
      }
      idx += 1
    }
  }

  /** Stencil of the point at `coords`, whose boundary pattern has bit d set
    * when coordinate d is 0.
    */
  def stencilAt(st: LorenzoPredictor.Stencils, coords: Array[Int]): LorenzoPredictor.Stencil =
    st(coords.indices.map(d => if (coords(d) == 0) 1 << d else 0).sum)

  /** Values spanning many magnitudes and both signs, with some exact zeros,
    * so escapes, rounding and cancellation all occur.
    */
  def mixedField(dims: Array[Int], seed: Long): Field = {
    val rnd = new java.util.Random(seed)
    Field.tabulate(dims) { i =>
      rnd.nextInt(8) match {
        case 0 => 0.0
        case 1 => rnd.nextGaussian() * 1e12
        case 2 => rnd.nextGaussian() * 1e-9
        case _ => math.sin(i * 0.3) * 50 + rnd.nextGaussian() * math.pow(10, rnd.nextInt(7) - 3)
      }
    }
  }

  def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)
}
