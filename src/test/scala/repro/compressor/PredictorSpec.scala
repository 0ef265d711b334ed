package repro.compressor

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Field
import repro.core.FieldSpec.of1d

class PredictorSpec extends AnyFunSuite {

  private def smoothField(dims: Array[Int], seed: Long = 1): Field = {
    val rnd = new java.util.Random(seed)
    Field.tabulate(dims) { i => math.sin(i * 0.01) * 10 + rnd.nextGaussian() * 0.05 }
  }

  private val shapes: Seq[Array[Int]] = Seq(
    Array(1000), Array(40, 50), Array(12, 15, 17), Array(4, 6, 7, 9),
    Array(1), Array(7), Array(3, 3), Array(65, 2), Array(64, 64),
  )

  for (p <- Predictor.all; dims <- shapes) {
    val name = s"${p.name} ${dims.mkString("x")}"

    test(s"$name: compress reconstruction equals decompress output") {
      val f = smoothField(dims)
      val q = new Quantizer(0.01)
      val out = p.compress(f, q)
      val dec = p.decompress(dims, q, out.codes, out.unpredictable, out.side)
      assert(dec.data.toSeq == out.recon.data.toSeq)
    }

    test(s"$name: error bound holds everywhere") {
      val f = smoothField(dims)
      Seq(1e-4, 1e-2, 1.0).foreach { eb =>
        val out = p.compress(f, new Quantizer(eb))
        val maxErr = Compressor.maxAbsError(f, out.recon)
        assert(maxErr <= eb * (1 + 1e-9), s"eb=$eb maxErr=$maxErr")
      }
    }

    test(s"$name: code count + anchors covers every point") {
      val f = smoothField(dims)
      val out = p.compress(f, new Quantizer(0.01))
      val anchors = p match {
        case InterpolationPredictor => out.side.length / 8
        case _                      => 0
      }
      assert(out.codes.length + anchors == f.size)
    }
  }

  for (p <- Predictor.all) {
    test(s"${p.name}: decompress rejects a code stream of the wrong length") {
      val f = smoothField(Array(12, 15, 17))
      val q = new Quantizer(0.01)
      val out = p.compress(f, q)
      for (codes <- Seq(out.codes.dropRight(1), out.codes :+ 0)) {
        intercept[IllegalArgumentException](p.decompress(f.dims, q, codes, out.unpredictable, out.side))
      }
    }

    test(s"${p.name}: decompress rejects an escape code with no unpredictable value left") {
      val f = smoothField(Array(12, 15, 17))
      val q = new Quantizer(0.01)
      val out = p.compress(f, q)
      assert(out.unpredictable.isEmpty)
      val codes = out.codes.clone()
      codes(codes.length / 2) = Quantizer.Escape
      intercept[IllegalArgumentException](p.decompress(f.dims, q, codes, out.unpredictable, out.side))
    }

    test(s"${p.name}: decompress rejects a side channel one byte too long") {
      val f = smoothField(Array(12, 15, 17))
      val q = new Quantizer(0.01)
      val out = p.compress(f, q)
      intercept[IllegalArgumentException](p.decompress(f.dims, q, out.codes, out.unpredictable, out.side :+ 0.toByte))
    }
  }

  for (p <- Seq(InterpolationPredictor, RegressionPredictor)) {
    test(s"${p.name}: decompress rejects a side channel one byte short") {
      val f = smoothField(Array(12, 15, 17))
      val q = new Quantizer(0.01)
      val out = p.compress(f, q)
      intercept[IllegalArgumentException](p.decompress(f.dims, q, out.codes, out.unpredictable, out.side.dropRight(1)))
    }
  }

  /** Lorenzo prediction at `coords` from `f`'s values. */
  private def lorenzoAt(f: Field, coords: Array[Int]): Double =
    LorenzoStencilSpec.stencilAt(LorenzoPredictor.Stencils(f.dims), coords).predict(f.data, f.index(coords))

  test("lorenzo 1-D predicts previous value") {
    val f = of1d(Array(1.0, 2.0, 3.0))
    assert(lorenzoAt(f, Array(0)) == 0.0)
    assert(lorenzoAt(f, Array(1)) == 1.0)
    assert(lorenzoAt(f, Array(2)) == 2.0)
  }

  test("lorenzo 2-D parallelogram rule") {
    // a[i-1][j] + a[i][j-1] - a[i-1][j-1]
    val f = Field(Array(1.0, 2.0, 3.0, 4.0), Array(2, 2))
    assert(lorenzoAt(f, Array(1, 1)) == 3.0 + 2.0 - 1.0)
  }

  test("lorenzo 2-D exactly predicts bilinear surfaces away from borders") {
    val dims = Array(10, 10)
    val f = Field.tabulate(dims) { i => val r = i / 10; val c = i % 10; 2.0 * r + 3.0 * c + 5.0 }
    for (r <- 1 until 10; c <- 1 until 10) {
      val pred = lorenzoAt(f, Array(r, c))
      assert(math.abs(pred - f(Array(r, c))) < 1e-9)
    }
  }

  test("lorenzo 3-D exactly predicts trilinear fields away from borders") {
    val dims = Array(5, 6, 7)
    val f = Field.tabulate(dims) { i =>
      val c = Field(new Array[Double](dims.product), dims).coords(i)
      1.5 * c(0) - 2.5 * c(1) + 0.5 * c(2) + 3.0
    }
    for (a <- 1 until 5; b <- 1 until 6; c <- 1 until 7) {
      val pred = lorenzoAt(f, Array(a, b, c))
      assert(math.abs(pred - f(Array(a, b, c))) < 1e-9)
    }
  }

  test("interpolation traversal visits every point exactly once") {
    Seq(Array(100), Array(17, 23), Array(9, 11, 13), Array(3, 4, 5, 6), Array(64, 64), Array(65, 65), Array(128)).foreach { dims =>
      val n = dims.product
      val seen = new Array[Int](n)
      InterpolationTraversalSpec.points(dims).foreach { case (idx, _, _, _) => seen(idx) += 1 }
      assert(seen.forall(_ == 1), s"dims=${dims.mkString("x")} missed=${seen.count(_ == 0)} dup=${seen.count(_ > 1)}")
    }
  }

  test("interpolation traversal: neighbors are known before use") {
    Seq(Array(50), Array(20, 30), Array(10, 12, 14)).foreach { dims =>
      val n = dims.product
      val known = new Array[Boolean](n)
      InterpolationTraversalSpec.points(dims).foreach { case (idx, isAnchor, p1, p2) =>
        if (!isAnchor) {
          assert(known(p1), s"left neighbor of $idx unknown in ${dims.mkString("x")}")
          if (p2 >= 0) assert(known(p2), s"right neighbor of $idx unknown")
        }
        known(idx) = true
      }
    }
  }

  test("interpolation anchors count matches Sampler.countAnchors") {
    Seq(Array(100), Array(64, 64), Array(65, 65), Array(9, 11, 13), Array(130, 70)).foreach { dims =>
      var anchors = 0
      InterpolationTraversalSpec.points(dims).foreach { case (_, isAnchor, _, _) => if (isAnchor) anchors += 1 }
      assert(anchors.toLong == InterpolationPredictor.anchorCount(dims), dims.mkString("x"))
    }
  }

  test("interpolation predicts exact midpoints of linear data with tiny codes") {
    val f = of1d(Array.tabulate(129)(i => i.toDouble))
    val out = InterpolationPredictor.compress(f, new Quantizer(1e-9))
    // linear data: every midpoint interpolation is exact -> all codes zero
    assert(out.codes.forall(_ == 0))
  }

  test("regression exactly fits hyperplane blocks") {
    val dims = Array(12, 12)
    val f = Field.tabulate(dims) { i => val r = i / 12; val c = i % 12; 4.0 * r - 7.0 * c + 11.0 }
    val out = RegressionPredictor.compress(f, new Quantizer(1e-3))
    // float-rounded coefficients keep residuals < 1e-3 on small blocks
    assert(out.codes.forall(_ == 0))
  }

  test("regression side channel has (ndim+1) floats per block") {
    val dims = Array(13, 25) // 2-D block edge 12 -> 2x3 = 6 blocks
    val f = smoothField(dims)
    val out = RegressionPredictor.compress(f, new Quantizer(0.01))
    assert(out.side.length == 6 * 3 * 4)
  }

  test("regression singular fallback: 1-point blocks") {
    val f = smoothField(Array(129)) // 1-D block edge 128 -> second block has 1 point
    val out = RegressionPredictor.compress(f, new Quantizer(0.01))
    val dec = RegressionPredictor.decompress(f.dims, new Quantizer(0.01), out.codes, out.unpredictable, out.side)
    assert(Compressor.maxAbsError(f, dec) <= 0.01 * (1 + 1e-9))
  }

  test("predictor registry roundtrips ids and names") {
    // idOf looks a predictor up by name, so the names must be distinct
    assert(Predictor.all.map(_.name).distinct.size == Predictor.all.size)
    Predictor.all.foreach { p =>
      assert(Predictor.byId(Predictor.idOf(p)).name == p.name)
    }
  }

  test("unpredictable values roundtrip exactly") {
    // spiky data under a tiny eb forces escapes
    val rnd = new java.util.Random(12)
    val data = Array.tabulate(500)(i => if (i % 50 == 0) rnd.nextDouble() * 1e18 else rnd.nextDouble())
    val f = of1d(data)
    val q = new Quantizer(1e-6)
    Predictor.all.foreach { p =>
      val out = p.compress(f, q)
      assert(out.unpredictable.nonEmpty, p.name)
      val dec = p.decompress(f.dims, q, out.codes, out.unpredictable, out.side)
      assert(Compressor.maxAbsError(f, dec) <= q.eb * (1 + 1e-9), p.name)
    }
  }
}
