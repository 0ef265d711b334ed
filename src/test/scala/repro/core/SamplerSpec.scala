package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.{InterpolationPredictor, LorenzoPredictor, Predictor, RegressionPredictor, RegressionReference}
import repro.compressor.LorenzoStencilSpec.{bits, mixedField}
import repro.data.SciData
import scala.collection.mutable.ArrayBuilder

class SamplerSpec extends AnyFunSuite {

  private lazy val field2d = SciData.climate2d(Array(90, 180), 202)
  private lazy val field3d = SciData.rtmSnapshot3d(2000)(Array(24, 32, 32), 101)
  private lazy val field1d = SciData.brownian1d(Array(32768), 601)

  for (p <- Predictor.all) {
    test(s"${p.name}: sampling is deterministic in the seed") {
      val a = Sampler.sample(field2d, p, 0.01, seed = 5)
      val b = Sampler.sample(field2d, p, 0.01, seed = 5)
      assert(a.errors.toSeq == b.errors.toSeq)
    }

    test(s"${p.name}: sample carries field stats") {
      val s = Sampler.sample(field3d, p)
      assert(s.totalPoints == field3d.size)
      assert(s.range == field3d.valueRange)
      assert(s.variance == field3d.variance)
      assert(s.predictor == p.name)
    }

    test(s"${p.name}: sampled error std tracks full-scan std (Fig. 4)") {
      // test-scale fields are small, so the block samplers (lorenzo patches,
      // regression blocks) see few units — use a generous rate and bound
      Seq(field1d, field2d, field3d).foreach { f =>
        val s = Sampler.sample(f, p, 0.05, seed = 9)
        val full = Sampler.fullErrors(f, p)
        val fullStd = {
          val mu = full.sum / full.length
          math.sqrt(full.map(x => (x - mu) * (x - mu)).sum / full.length)
        }
        val relErr = math.abs(s.errorStd - fullStd) / f.valueRange
        assert(relErr < 0.05, s"dims=${f.dims.mkString("x")} sampled=${s.errorStd} full=$fullStd")
      }
    }
  }

  test("error rate decreases with sampling rate on average (Fig. 4 trend)") {
    val f = field3d
    val full = Sampler.fullErrors(f, LorenzoPredictor)
    val mu = full.sum / full.length
    val fullStd = math.sqrt(full.map(x => (x - mu) * (x - mu)).sum / full.length)
    def err(rate: Double): Double = {
      // average over seeds to beat sampling noise
      (1 to 5).map { s =>
        math.abs(Sampler.sample(f, LorenzoPredictor, rate, seed = s).errorStd - fullStd)
      }.sum / 5
    }
    // MinSamples floors tiny rates on this small field, so compare across
    // rates that actually differ in sample count
    assert(err(0.5) <= err(0.05) * 1.5 + 1e-12)
  }

  test("minimum sample size enforced for tiny fields") {
    val tiny = FieldSpec.tabulate(Array(40, 40))(i => math.sin(i * 0.1))
    val s = Sampler.sample(tiny, LorenzoPredictor, 0.01)
    assert(s.errors.length >= math.min(tiny.size, Sampler.MinSamples))
  }

  test("interpolation sampling covers multiple levels") {
    // errors from different levels have different magnitudes on Brownian data;
    // a single-level sample would have far less spread
    val s = Sampler.sample(field1d, InterpolationPredictor, 0.05)
    val absErrs = s.errors.map(math.abs).sorted
    assert(absErrs.last / math.max(absErrs(absErrs.length / 2), 1e-12) > 2.0)
  }

  test("interpolation: a rate-1 sample equals the full scan, bit for bit") {
    Seq(Array(300), Array(40, 33), Array(9, 17, 12), Array(5, 6, 7, 8), Array(20, 1, 30), Array(1, 70)).foreach { dims =>
      val f = mixedField(dims, 7L)
      val full = Sampler.fullErrors(f, InterpolationPredictor)
      (0L until 3L).foreach { seed =>
        assert(bits(Sampler.interpolation(f, 1.0, seed).errors) == bits(full), s"dims=${dims.mkString("x")}")
      }
    }
  }

  test("interpolation: the count sampled per traversal level is Binomial(n_level, rate) within 4σ") {
    val rate = 0.05
    Seq(Array(1 << 16), Array(256, 256)).foreach { dims =>
      val rnd = new java.util.Random(3)
      val f = FieldSpec.tabulate(dims)(_ => rnd.nextGaussian())
      // the full scan's errors in traversal order, each with its point's
      // level: the largest power-of-two stride dividing every coordinate
      val full = Sampler.fullErrors(f, InterpolationPredictor).map(java.lang.Double.doubleToRawLongBits)
      assert(full.distinct.length == full.length, "errors must identify their points")
      val strides = Field.strides(dims)
      val levels = scala.collection.mutable.ArrayBuffer.empty[Int]
      InterpolationPredictor.traverse(dims) { (first, step, count, back, _) =>
        if (back > 0) (0 until count).foreach { k =>
          val idx = first + k * step
          levels += dims.indices.map(d => idx / strides(d) % dims(d))
            .map(c => if (c == 0) InterpolationPredictor.MaxStride else Integer.lowestOneBit(c)).min
        }
      }
      val population = levels.groupBy(identity).view.mapValues(_.length).toMap
      assert(population.size == 6, s"levels ${population.keys}") // h = 32, 16, …, 1
      (0L until 10L).foreach { seed =>
        // the sample is a subsequence of the full scan: match it greedily
        val taken = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
        var j = 0
        Sampler.interpolation(f, rate, seed).errors.foreach { e =>
          val b = java.lang.Double.doubleToRawLongBits(e)
          while (j < full.length && full(j) != b) j += 1
          assert(j < full.length, s"seed $seed: sampled error $e is not next in the full scan")
          taken(levels(j)) += 1
          j += 1
        }
        population.foreach { case (h, n) =>
          val sigma = math.sqrt(n * rate * (1 - rate))
          assert(math.abs(taken(h) - n * rate) <= 4 * sigma,
            s"dims=${dims.mkString("x")} seed=$seed level h=$h: ${taken(h)} of $n")
        }
      }
    }
  }

  /** The interpolation sampler as first written, kept as the reference:
    * each gap from `math.log1p`, each error read from the data as soon as
    * its point is drawn. Returns the errors without the sampler's 0.0 for
    * an empty sample.
    */
  private def referenceInterpolation(field: Field, rate: Double, seed: Long): Array[Double] = {
    val rnd = new Lcg(seed)
    val effRate = math.min(1.0, math.max(rate, Sampler.MinSamples.toDouble / field.size))
    val logKeep = math.log1p(-effRate)
    def gap(): Long = (math.log1p(-rnd.nextDouble()) / logKeep).toLong
    val data = field.data
    val buf = new ArrayBuilder.ofDouble
    var skip = gap()
    InterpolationPredictor.traverse(field.dims) { (first, step, count, back, right) =>
      if (back > 0) {
        var k = skip
        while (k < count) {
          val i = k.toInt
          val idx = first + i * step
          buf += data(idx) - InterpolationPredictor.predict(data, idx, back, i < right)
          k += 1 + gap()
        }
        skip = k - count
      }
    }
    buf.result()
  }

  /** Asserts the batched sampler equals [[referenceInterpolation]] bit for
    * bit and returns the sample count.
    */
  private def checkInterpolation(f: Field, rate: Double, seed: Long): Int = {
    val want = referenceInterpolation(f, rate, seed)
    val got = Sampler.interpolation(f, rate, seed).errors
    assert(bits(got) == bits(if (want.isEmpty) Array(0.0) else want),
      s"dims=${f.dims.mkString("x")} rate=$rate seed=$seed")
    want.length
  }

  test("interpolation: the batched sample equals the per-point reference on the registry fields") {
    for (sf <- SciData.fields; seed <- 0L until 10L)
      checkInterpolation(sf.generate(test = true), Sampler.DefaultRate, seed)
  }

  test("interpolation: the batched sample equals the per-point reference at every queue flush edge") {
    // at a rate of 1 (fields under MinSamples points) the count is the
    // non-anchor count: 0, 1, one short of a batch, one batch, one over, two
    val byCount = Seq(
      0 -> Seq(Array(1), Array(1, 1, 1)),
      1 -> Seq(Array(2), Array(1, 1, 1, 2)),
      255 -> Seq(Array(260), Array(16, 16), Array(2, 2, 8, 8)),
      256 -> Seq(Array(261), Array(3, 86)),
      257 -> Seq(Array(262), Array(6, 43)),
      512 -> Seq(Array(521), Array(3, 9, 19)),
    )
    for ((count, shapes) <- byCount; dims <- shapes; seed <- 0L until 3L)
      assert(checkInterpolation(mixedField(dims, seed), 1.0, seed) == count, s"dims=${dims.mkString("x")}")
    // below rate 1 the MinSamples floor centres the count on 1024 = 4 batches
    // here; over the seeds it lands one short of, on and one past a flush
    val f = mixedField(Array(300, 300), 9L)
    val counts = (0L until 1000L).map(seed => checkInterpolation(f, 0.01, seed))
    assert(Set(1023, 1024, 1025).subsetOf(counts.toSet), s"counts ${counts.min}..${counts.max}")
  }

  test("the fast skip gap equals the log1p gap over a million draws per rate and at edge draws") {
    val edges = Seq(0.0, Double.MinPositiveValue, 0.5, 1.0 - 1.0 / (1L << 53))
    Seq(1e-6, 1e-4, 0.01, 0.5, 1.0).foreach { rate =>
      val logKeep = math.log1p(-rate)
      val rnd = new Lcg(17L)
      var fallbacks = 0
      var i = 0
      while (i < 1000000) {
        val u = rnd.nextDouble()
        val g = Sampler.gap(u, logKeep)
        if (g != Sampler.exactGap(u, logKeep)) fail(s"rate $rate draw $i: u=$u gap $g, exact ${Sampler.exactGap(u, logKeep)}")
        if (Sampler.fastGap(u, logKeep) < 0) fallbacks += 1
        i += 1
      }
      // the fast path, not the fallback, decides nearly every draw
      assert(fallbacks < 100, s"rate $rate: $fallbacks fallbacks")
      edges.foreach(u => assert(Sampler.gap(u, logKeep) == Sampler.exactGap(u, logKeep), s"rate $rate u=$u"))
    }
  }

  test("the skip gap falls back to log1p where the quotient lies within 1 ulp of an integer") {
    // at a rate of 1 every quotient is exactly 0 on both paths; below it,
    // u = 1 − exp(n·logKeep) and its neighbours put ln(1−u)/logKeep at n
    Seq(1e-6, 1e-4, 0.01, 0.5).foreach { rate =>
      val logKeep = math.log1p(-rate)
      val constructed = for {
        n <- Seq(1L, 2L, 3L, 10L, 1000L, 123456L)
        u0 = -math.expm1(n * logKeep)
        k <- -8 to 8
        u = u0 + k * math.ulp(u0)
        if u >= 0 && u < 1
        q = math.log1p(-u) / logKeep
        if math.abs(q - n) <= math.ulp(n.toDouble)
      } yield u
      assert(constructed.nonEmpty, s"rate $rate")
      constructed.foreach { u =>
        assert(Sampler.fastGap(u, logKeep) == -1L, s"rate $rate u=$u: the fast path decided")
        assert(Sampler.gap(u, logKeep) == Sampler.exactGap(u, logKeep), s"rate $rate u=$u")
      }
    }
  }

  test("regression: the sample is the chosen blocks' slices of the full scan, in block order") {
    val fields = Seq(Array(1000), Array(40, 50), Array(12, 15, 17), Array(4, 6, 7, 9)).map(mixedField(_, 8L)) ++
      SciData.fields.map(_.generate(test = true))
    for (f <- fields; seed <- 0L until 3L) {
      val chosen = Sampler.regressionBlocks(f, 0.01, seed)
      val full = RegressionReference.fullErrors(f)
      val want = new ArrayBuilder.ofDouble
      var at = 0
      var b = 0
      RegressionReference.foreachBlock(f.dims) { (lo, hi) =>
        val vol = lo.indices.map(d => hi(d) - lo(d)).product
        if (chosen(b)) want ++= full.slice(at, at + vol)
        at += vol
        b += 1
      }
      assert(at == full.length)
      assert(bits(Sampler.regression(f, 0.01, seed).errors) == bits(want.result()),
        s"dims=${f.dims.mkString("x")} seed=$seed")
    }
  }

  test("regression sampling uses whole blocks") {
    val s = Sampler.sample(field3d, RegressionPredictor, 0.01)
    val pointsPerBlock = 6 * 6 * 6
    // sample size is a multiple of block volumes (edge blocks may be smaller)
    assert(s.errors.length >= pointsPerBlock)
  }

  test("absQuantile is monotone") {
    val s = Sampler.sample(field2d, LorenzoPredictor)
    val qs = s.absQuantiles(Seq(0.1, 0.5, 0.8, 0.95, 0.99)).toSeq
    assert(qs == qs.sorted)
  }

  /** The definition `absQuantiles` selects instead of sorting: rank ⌊p·n⌋
    * of a sorted copy of |errors|.
    */
  private def sortedQuantiles(errors: Array[Double], ps: Seq[Double]): Seq[Long] = {
    val a = errors.map(math.abs)
    java.util.Arrays.sort(a)
    ps.map(p => java.lang.Double.doubleToLongBits(a(math.min(a.length - 1, math.max(0, (p * a.length).toInt)))))
  }

  private def selectedQuantiles(errors: Array[Double], ps: Seq[Double]): Seq[Long] =
    PredictionErrorSample("test", errors, errors.length, 1.0, 1.0)
      .absQuantiles(ps).toSeq.map(java.lang.Double.doubleToLongBits)

  test("absQuantiles equals a sorted-array reference on random arrays with ties") {
    val ps = Seq(0.0, 0.1, 0.5, 0.5, 0.8, 0.95, 0.99, 1.0)
    val rnd = new java.util.Random(11)
    // lengths straddle the 600-element window of Floyd–Rivest's sampling step
    Seq(2, 3, 17, 600, 602, 5000, 40000).foreach { n =>
      (0 until 5).foreach { trial =>
        val levels = Seq(3, 40, Int.MaxValue)(trial % 3)
        val errors = Array.fill(n) {
          val v = if (levels == Int.MaxValue) rnd.nextGaussian() else (rnd.nextInt(levels) - levels / 2).toDouble
          if (rnd.nextInt(50) == 0) -0.0 else v
        }
        assert(selectedQuantiles(errors, ps) == sortedQuantiles(errors, ps), s"n=$n trial=$trial")
        // ps in any order come back in the order given
        assert(selectedQuantiles(errors, ps.reverse) == sortedQuantiles(errors, ps.reverse), s"n=$n trial=$trial")
      }
    }
  }

  test("absQuantiles on a 1-element array and on an array holding NaN") {
    val ps = Seq(0.0, 0.5, 0.99, 1.0)
    assert(selectedQuantiles(Array(-2.5), ps) == sortedQuantiles(Array(-2.5), ps))
    val rnd = new java.util.Random(12)
    Seq(1, 5, 1000).foreach { n =>
      val errors = Array.fill(n)(rnd.nextGaussian())
      errors(rnd.nextInt(n)) = Double.NaN
      errors(rnd.nextInt(n)) = Double.NaN
      val got = selectedQuantiles(errors, ps)
      assert(got == sortedQuantiles(errors, ps), s"n=$n")
      // NaN ranks last, as Arrays.sort puts it
      assert(java.lang.Double.isNaN(java.lang.Double.longBitsToDouble(got.last)))
    }
  }

  test("countAnchors matches ceil(dim/stride) product") {
    assert(InterpolationPredictor.anchorCount(Array(64)) == 1)
    assert(InterpolationPredictor.anchorCount(Array(65)) == 2)
    assert(InterpolationPredictor.anchorCount(Array(128, 128)) == 4)
    assert(InterpolationPredictor.anchorCount(Array(100, 30, 7)) == 2)
  }

  test("Lcg draws the same doubles as java.util.Random, bit for bit") {
    Seq(0L, 42L, -1L, Long.MinValue).foreach { seed =>
      val lcg = new Lcg(seed)
      val jdk = new java.util.Random(seed)
      var i = 0
      while (i < 1000000) {
        val a = lcg.nextDouble()
        val b = jdk.nextDouble()
        if (java.lang.Double.doubleToRawLongBits(a) != java.lang.Double.doubleToRawLongBits(b))
          fail(s"seed $seed draw $i: Lcg $a, java.util.Random $b")
        i += 1
      }
    }
  }

  test("unknown predictor rejected") {
    val dummy = new Predictor {
      val name = "dummy"
      def compress(f: Field, q: repro.compressor.Quantizer) = ???
      def decompress(d: Array[Int], q: repro.compressor.Quantizer, c: Array[Int], u: Array[Double], s: Array[Byte]) = ???
    }
    intercept[IllegalArgumentException](Sampler.sample(field2d, dummy))
  }
}
