package repro.compressor

import org.scalacheck.{Arbitrary, Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.data.SciData
import scala.collection.mutable

class HuffmanSpec extends AnyFunSuite {

  /** The largest code magnitude the quantizer emits, and the number of its non-escape codes. */
  private val MaxCode = Quantizer.Radius - 1
  private val CodeCount = 2 * MaxCode + 1

  /** Canonical codes (symbol -> (code, len)) from code lengths: sort by
    * (len, symbol), assign increasing code values.
    */
  private def canonicalCodes(lengths: Map[Int, Int]): Map[Int, (Long, Int)] = {
    var code = 0L
    var prevLen = 0
    lengths.toSeq.sortBy { case (s, l) => (l, s) }.map { case (s, l) =>
      code <<= (l - prevLen)
      prevLen = l
      val out = s -> (code, l)
      code += 1
      out
    }.toMap
  }

  private def entropyBits(freqs: Map[Int, Long]): Double = {
    val total = freqs.values.sum.toDouble
    freqs.values.map { f =>
      val p = f / total
      -f * math.log(p) / math.log(2)
    }.sum
  }

  /** Payload bits of the optimal code of `symbols`. */
  private def payloadBits(symbols: Array[Int]): Long = Huffman.Code.of(Huffman.histogram(symbols)).payloadBits

  /** The boxed heap that first defined the code lengths, kept as the
    * reference for [[Huffman]]'s primitive heap: a `mutable.PriorityQueue`
    * of node ids under a reversed weight ordering, leaves entering in index
    * order, the root's depth 0 and each node one below its parent.
    */
  private def referenceLeafDepths(w: Array[Long]): Array[Int] = {
    val d = w.length
    if (d <= 1) return Array.fill(d)(1)
    val weight = java.util.Arrays.copyOf(w, 2 * d - 1)
    val parent = new Array[Int](2 * d - 1)
    val pq = mutable.PriorityQueue.empty[Int](Ordering.by[Int, Long](weight(_)).reverse)
    (0 until d).foreach(pq.enqueue(_))
    var next = d
    while (pq.size > 1) {
      val a = pq.dequeue(); val b = pq.dequeue()
      weight(next) = weight(a) + weight(b)
      parent(a) = next; parent(b) = next
      pq.enqueue(next)
      next += 1
    }
    val depth = new Array[Int](2 * d - 1)
    (2 * d - 3 to 0 by -1).foreach(k => depth(k) = depth(parent(k)) + 1)
    depth.take(d)
  }

  /** The key order of an immutable `Map` built from a mutable `HashMap` of
    * `symbols`, kept as the reference for [[Huffman.mapOrder]].
    */
  private def referenceMapOrder(symbols: Array[Int]): Array[Int] = {
    val m = mutable.HashMap.empty[Int, Long]
    symbols.foreach(m(_) = 0L)
    m.toMap.keysIterator.toArray
  }

  /** Asserts that `Code.of(hist)` and `codeLengths` over a map of the same
    * counts give the reference heap's lengths, leaves entering in the
    * reference map order.
    */
  private def assertReferenceLengths(hist: Huffman.Histogram, what: => String): Unit = {
    val symbols = hist.presentSlots.map(hist.symbol)
    val order = referenceMapOrder(symbols)
    assert(Huffman.mapOrder(symbols).map(symbols(_)).toSeq == order.toSeq, what)
    val want = order.zip(referenceLeafDepths(order.map(hist.count(_).toLong))).toMap
    val code = Huffman.Code.of(hist)
    assert(symbols.map(s => s -> code.lenOf(hist.slot(s))).toMap == want, what)
    val freqs = symbols.map(s => s -> hist.count(s).toLong).toMap
    val entries = freqs.toArray
    val wantMap = entries.map(_._1).zip(referenceLeafDepths(entries.map(_._2))).toMap
    assert(Huffman.codeLengths(freqs) == wantMap, what)
  }

  test("code lengths match the boxed-heap reference on the 153 codec histograms") {
    for {
      spec <- SciData.fields
      f = spec.generate(test = true)
      p <- Predictor.all
      rel <- CodecGolden.EbRels
    } assertReferenceLengths(Huffman.histogram(p.compress(f, new Quantizer(rel * f.valueRange)).codes),
      s"${spec.id} ${p.name} $rel")
  }

  test("code lengths match the boxed-heap reference on random tie-heavy and wide-weight histograms") {
    val rnd = new java.util.Random(21)
    for {
      n <- Seq(1, 2, 3, 4, 5, 31, 32, 33, 1000, 5000)
      maxWeight <- Seq(3, 1000000)
      sparse <- Seq(false, true)
      rep <- 0 until 3
    } {
      // distinct symbols, negatives included, one of them Escape in two draws of three;
      // the sparse draws spread over all 65,535 non-escape codes, so the map order meets deep trie nodes
      val pool = mutable.LinkedHashSet.empty[Int]
      if (rep != 1) pool += Quantizer.Escape
      while (pool.size < n) pool += (if (sparse) rnd.nextInt(CodeCount) - MaxCode else rnd.nextInt(4 * n + 1) - 2 * n)
      val hist = Huffman.histogram(pool.toArray)
      // a one-of-each stream gives every symbol a slot; set its weight there
      hist.presentSlots.foreach(k => hist.counts(k) = 1 + rnd.nextInt(maxWeight))
      assertReferenceLengths(hist, s"n=$n maxWeight=$maxWeight sparse=$sparse rep=$rep")
    }
  }

  test("single-symbol alphabet gets 1-bit codes") {
    assert(Huffman.codeLengths(Map(7 -> 100L)) == Map(7 -> 1))
  }

  test("two symbols get 1-bit codes regardless of skew") {
    val lens = Huffman.codeLengths(Map(0 -> 1000L, 1 -> 1L))
    assert(lens.values.toSet == Set(1))
  }

  test("uniform 4-symbol alphabet gets 2-bit codes") {
    val lens = Huffman.codeLengths(Map(0 -> 10L, 1 -> 10L, 2 -> 10L, 3 -> 10L))
    assert(lens.values.forall(_ == 2))
  }

  test("more frequent symbols never get longer codes") {
    val freqs = Map(0 -> 100L, 1 -> 50L, 2 -> 20L, 3 -> 5L, 4 -> 1L)
    val lens = Huffman.codeLengths(freqs)
    val ordered = freqs.toSeq.sortBy(-_._2).map { case (s, _) => lens(s) }
    assert(ordered == ordered.sorted)
  }

  test("Huffman total bits within [entropy, entropy + n] (redundancy < 1 bit/symbol)") {
    val rnd = new java.util.Random(3)
    (0 until 20).foreach { _ =>
      val nSym = 2 + rnd.nextInt(40)
      val freqs = (0 until nSym).map(s => s -> (1L + rnd.nextInt(1000).toLong)).toMap
      val total = freqs.values.sum
      val bits = payloadBits(freqs.toArray.flatMap { case (s, f) => Array.fill(f.toInt)(s) })
      val h = entropyBits(freqs)
      assert(bits >= h - 1e-6, s"below entropy: $bits < $h")
      assert(bits <= h + total, s"redundancy above 1 bit/symbol")
    }
  }

  test("Kraft inequality holds for generated code lengths") {
    val rnd = new java.util.Random(4)
    (0 until 20).foreach { _ =>
      val nSym = 1 + rnd.nextInt(60)
      val freqs = (0 until nSym).map(s => s -> (1L + rnd.nextInt(500).toLong)).toMap
      val lens = Huffman.codeLengths(freqs)
      val kraft = lens.values.map(l => math.pow(2.0, -l)).sum
      assert(kraft <= 1.0 + 1e-9)
    }
  }

  test("canonical codes are prefix-free") {
    val freqs = Map(0 -> 50L, 1 -> 30L, 2 -> 10L, 3 -> 7L, 4 -> 2L, 5 -> 1L)
    val codes = canonicalCodes(Huffman.codeLengths(freqs))
    val bitStrings = codes.values.map { case (c, l) =>
      String.format("%" + l + "s", java.lang.Long.toBinaryString(c)).replace(' ', '0')
    }.toSeq
    for (a <- bitStrings; b <- bitStrings if a != b) {
      assert(!b.startsWith(a), s"$a is a prefix of $b")
    }
  }

  test("roundtrip: skewed quantization-code-like stream") {
    val rnd = new java.util.Random(5)
    val symbols = Array.fill(5000) {
      val r = rnd.nextDouble()
      if (r < 0.7) 0 else if (r < 0.85) 1 else if (r < 0.95) -1 else rnd.nextInt(20) - 10
    }
    val blob = Huffman.encode(symbols)
    assert(Huffman.decode(blob).toSeq == symbols.toSeq)
  }

  test("roundtrip: single distinct symbol") {
    val symbols = Array.fill(100)(42)
    assert(Huffman.decode(Huffman.encode(symbols)).toSeq == symbols.toSeq)
  }

  test("roundtrip: includes the Escape sentinel symbol") {
    val symbols = Array(0, 0, Quantizer.Escape, 1, -1, 0, Quantizer.Escape)
    assert(Huffman.decode(Huffman.encode(symbols)).toSeq == symbols.toSeq)
  }

  test("roundtrip: negative and large-magnitude symbols") {
    val rnd = new java.util.Random(6)
    val symbols = Array.fill(2000)(rnd.nextInt(CodeCount) - MaxCode)
    assert(Huffman.decode(Huffman.encode(symbols)).toSeq == symbols.toSeq)
  }

  test("alphabet boundary: every code from -32767 to 32767 and Escape round-trip in 65,536 slots") {
    val alphabet = (0 +: (1 to MaxCode).flatMap(m => Seq(m, -m))).toArray :+ Quantizer.Escape
    val symbols = alphabet ++ skewedStream(alphabet, 200000, 14)
    val hist = Huffman.histogram(symbols)
    assert(hist.counts.length == 65536)
    assert(hist.distinct == 65536)
    assert(java.util.Arrays.equals(Huffman.decode(Huffman.encode(symbols)), symbols))
  }

  test("encode rejects symbols outside the quantizer's codes before sizing counts by them") {
    Seq(-Quantizer.Radius, Quantizer.Radius, Int.MaxValue).foreach { bad =>
      intercept[IllegalArgumentException](Huffman.encode(Array(-MaxCode, 0, bad, Quantizer.Escape)))
    }
    // counts over -32767 to 32768 would take 256 KiB
    val bean = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val wide = Array(-MaxCode, Quantizer.Radius)
    val before = bean.getThreadAllocatedBytes(Thread.currentThread.getId)
    intercept[IllegalArgumentException](Huffman.encode(wide))
    val allocated = bean.getThreadAllocatedBytes(Thread.currentThread.getId) - before
    assert(allocated < (64 << 10), s"$allocated bytes allocated")
  }

  test("codes longer than 31 bits: a Fibonacci-weighted stream of 9.2 M codes round-trips") {
    // weights F(1) to F(33): the tree is a path, so the two rarest codes take 32 bits
    val weights = Iterator.iterate((1, 1)) { case (a, b) => (b, a + b) }.map(_._1).take(33).toArray
    val symbols = new Array[Int](weights.sum)
    var at = 0
    weights.indices.foreach { s => java.util.Arrays.fill(symbols, at, at + weights(s), s - 16); at += weights(s) }
    // a seeded Fisher-Yates shuffle, so the long codes sit among the short ones
    val rnd = new java.util.Random(15)
    (symbols.length - 1 to 1 by -1).foreach { i =>
      val j = rnd.nextInt(i + 1); val t = symbols(i); symbols(i) = symbols(j); symbols(j) = t
    }
    val hist = Huffman.histogram(symbols)
    assertReferenceLengths(hist, "Fibonacci weights")
    val code = Huffman.Code.of(hist)
    val present = hist.presentSlots
    assert(present.map(k => code.lenOf(k)).max >= 32)
    val bits = present.map(k => hist.counts(k).toLong * code.lenOf(k)).sum
    val blob = Huffman.encode(symbols)
    assert(java.nio.ByteBuffer.wrap(blob).getLong(Huffman.codebookBytes(weights.length) - 8) == bits)
    assert(blob.length == Huffman.codebookBytes(weights.length) + (bits + 7) / 8)
    assert(java.util.Arrays.equals(Huffman.decode(blob), symbols))
  }

  test("roundtrip: length-1 input") {
    assert(Huffman.decode(Huffman.encode(Array(-3))).toSeq == Seq(-3))
  }

  test("encode blob size equals header + ceil(payloadBits/8)") {
    val symbols = Array.fill(1000)(0) ++ Array.fill(100)(1) ++ Array.fill(10)(2)
    val freqs = symbols.groupBy(identity).map { case (s, a) => s -> a.length.toLong }
    val blob = Huffman.encode(symbols)
    val expected = Huffman.codebookBytes(freqs.size) + ((payloadBits(symbols) + 7) / 8).toInt
    assert(blob.length == expected)
  }

  test("encodedBits matches actual encoded payload length") {
    val rnd = new java.util.Random(7)
    val symbols = Array.fill(3000)(rnd.nextInt(10))
    val freqs = symbols.groupBy(identity).map { case (s, a) => s -> a.length.toLong }
    val blob = Huffman.encode(symbols)
    val payloadBytes = blob.length - Huffman.codebookBytes(freqs.size)
    assert(payloadBytes == ((payloadBits(symbols) + 7) / 8).toInt)
  }

  test("rejects empty alphabet") {
    intercept[IllegalArgumentException](Huffman.codeLengths(Map.empty))
  }

  test("rejects non-positive frequencies") {
    intercept[IllegalArgumentException](Huffman.codeLengths(Map(1 -> 0L)))
  }

  /** A stream over `alphabet`, skewed towards its first symbols as quantization codes are. */
  private def skewedStream(alphabet: Array[Int], n: Int, seed: Long): Array[Int] = {
    val rnd = new java.util.Random(seed)
    Array.fill(n)(alphabet((math.pow(rnd.nextDouble(), 3) * alphabet.length).toInt))
  }

  test("property: decode(encode(x)) == x over alphabets of 1 to 5,000 symbols") {
    val symbol = Gen.frequency(
      1 -> Gen.const(Quantizer.Escape), 6 -> Gen.choose(-MaxCode, MaxCode), 1 -> Gen.oneOf(-MaxCode, MaxCode))
    val streams = for {
      k <- Gen.choose(1, 5000)
      alphabet <- Gen.listOfN(k, symbol)
      n <- Gen.choose(0, 20000)
      seed <- Arbitrary.arbitrary[Long]
    } yield skewedStream(alphabet.distinct.toArray, n, seed)
    val prop = Prop.forAll(streams) { xs =>
      val blob = Huffman.encode(xs)
      val freqs = xs.groupBy(identity).map { case (s, a) => s -> a.length.toLong }
      val bits = payloadBits(xs)
      java.util.Arrays.equals(Huffman.decode(blob), xs) &&
        blob.length == Huffman.codebookBytes(freqs.size) + (bits + 7) / 8
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(11L), prop)
    assert(result.passed, result.status.toString)
  }

  test("a wide code range codes like a narrow one") {
    val narrow = skewedStream(Array.range(-20, 20) :+ Quantizer.Escape, 5000, 12)
    val wide = narrow.map(s => if (s == Quantizer.Escape) s else s * 1600)
    val (n, w) = (Huffman.encode(narrow), Huffman.encode(wide))
    assert(n.length == w.length)
    assert(Huffman.decode(w).toSeq == wide.toSeq)
  }

  test("empty stream: a header-only blob that decodes to no symbols") {
    val blob = Huffman.encode(Array.empty[Int])
    assert(blob.length == Huffman.codebookBytes(0))
    assert(Huffman.decode(blob).isEmpty)
  }

  test("codes of 32 to 40 bits: a hand-built canonical codebook decodes exactly") {
    // lengths 1..39 once and 40 twice: a complete code (Kraft sum 1)
    val lengths = (0 until 39).map(s => s -> (s + 1)).toMap ++ Map(39 -> 40, 40 -> 40)
    val codes = canonicalCodes(lengths)
    assert(codes(40) == ((1L << 40) - 1, 40))
    val symbols = Array.tabulate(400)(i => (i * 7) % 41)
    val bits = new StringBuilder
    symbols.foreach { s =>
      val (c, l) = codes(s)
      bits ++= String.format("%" + l + "s", java.lang.Long.toBinaryString(c)).replace(' ', '0')
    }
    val payload = bits.result().grouped(8).map(b => Integer.parseInt(b.padTo(8, '0'), 2).toByte).toArray
    val bb = java.nio.ByteBuffer.allocate(Huffman.codebookBytes(lengths.size) + payload.length)
    bb.putInt(lengths.size)
    lengths.toSeq.sortBy { case (s, l) => (l, s) }.foreach { case (s, l) => bb.putInt(s); bb.put(l.toByte) }
    bb.putInt(symbols.length).putLong(bits.length.toLong).put(payload)
    val blob = bb.array()
    assert(Huffman.decode(blob).toSeq == symbols.toSeq)
    // the encoder writes the same bytes from its flat tables
    val hist = Huffman.histogram(symbols)
    val lenOf = new Array[Int](hist.counts.length)
    lengths.foreach { case (s, l) => lenOf(hist.slot(s)) = l }
    assert(Huffman.encode(symbols, Huffman.Code.withLengths(hist, lenOf)).toSeq == blob.toSeq)
  }

  test("decode rejects every truncation of a blob with IllegalArgumentException") {
    val blob = Huffman.encode(skewedStream(Array(0, 1, -1, 2, -2, 5, Quantizer.Escape), 300, 13))
    (0 until blob.length).foreach { cut =>
      intercept[IllegalArgumentException](Huffman.decode(java.util.Arrays.copyOf(blob, cut)))
    }
  }

  test("decode rejects forged counts, lengths and codes before allocating") {
    val blob = Huffman.encode(Array(0, 0, 1, 2, 0, 1, 0, 0))
    val nsym = 3
    def forged(f: java.nio.ByteBuffer => Unit): Array[Byte] = {
      val b = blob.clone(); f(java.nio.ByteBuffer.wrap(b)); b
    }
    val ncodesAt = 4 + 5 * nsym
    Seq(
      forged(_.putInt(0, Int.MaxValue)), // symbol count
      forged(_.putInt(0, -1)),
      forged(_.put(8, 0.toByte)), // a code length of 0
      forged(_.put(8, 58.toByte)), // longer than MaxCodeLen
      forged { bb => bb.put(8, 1.toByte); bb.put(13, 1.toByte); bb.put(18, 1.toByte) }, // Kraft sum 3/2
      forged(_.putInt(ncodesAt, Int.MaxValue)), // more codes than payload bits
      forged(_.putInt(ncodesAt, -1)),
      forged(_.putLong(ncodesAt + 4, Long.MaxValue)), // more payload bits than bytes
      forged(_.putLong(ncodesAt + 4, -1L)),
      forged(_.putInt(4, Quantizer.Radius)), // a codebook symbol the quantizer cannot emit
      forged(_.putInt(4, -Quantizer.Radius)),
    ).foreach(b => intercept[IllegalArgumentException](Huffman.decode(b)))
    // a single-symbol code leaves the bit pattern 1 unassigned
    val single = Huffman.encode(Array(7, 7, 7))
    single(single.length - 1) = 0xff.toByte
    intercept[IllegalArgumentException](Huffman.decode(single))
  }
}
