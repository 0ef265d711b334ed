package repro.compressor

import scala.collection.mutable

/** Real Huffman codec over the quantizer's codes: the `Int`s of
  * (−[[Quantizer.Radius]], [[Quantizer.Radius]]) and [[Quantizer.Escape]].
  * `encode` and `decode` reject any other symbol.
  *
  * Builds the optimal prefix code from symbol frequencies, encodes to a bit
  * stream, and serializes a canonical codebook so `decode` is self-contained.
  * The work runs on primitive arrays: one [[Huffman.Histogram]] per stream
  * feeds the code lengths, the payload size and the encoder's flat tables,
  * and the decoder resolves codes through a canonical lookup table. The
  * `Map`-based methods are thin adapters over the same build.
  *
  * Section, as [[encode]] returns it and as a compressor blob ends:
  * [numSymbols:int][symbol:int, len:byte]* [numCodes:int][payloadBits:long][payload bytes],
  * the codebook in canonical order (by length, then symbol) and the payload
  * MSB-first. An empty stream is the 16-byte header alone.
  */
object Huffman {

  /** Longest code the format carries: the encoder shifts a code into a 64-bit
    * accumulator that may still hold 7 unwritten bits.
    */
  val MaxCodeLen: Int = 57

  /** Bits resolved by one lookup in the decoder's primary table. */
  private val TableBits = 11

  /** Whether `s` is a code the quantizer emits: |s| < [[Quantizer.Radius]],
    * or [[Quantizer.Escape]]. These are the only symbols the codec takes.
    */
  private def inAlphabet(s: Int): Boolean =
    s == Quantizer.Escape || (s > -Quantizer.Radius && s < Quantizer.Radius)

  /** Counts of each quantization code of a stream, one `Int` slot per code;
    * the one quantization-code histogram (§III-D), of the compressor's
    * streams and of the model's sampled codes alike. Slot `s - lo` counts
    * code `s` of the range [lo, lo + counts.length − 1), which lies within
    * the quantizer's codes, and the last slot counts [[Quantizer.Escape]].
    * Absent codes of the range have slot count 0.
    *
    * @param total the stream's length, the sum of the slot counts
    */
  final class Histogram private[repro] (lo: Int, val counts: Array[Int], val total: Int) {
    private[this] val escSlot = counts.length - 1

    def slot(s: Int): Int = if (s == Quantizer.Escape) escSlot else s - lo

    def symbol(slot: Int): Int = if (slot == escSlot) Quantizer.Escape else lo + slot

    /** Occurrences of symbol `s` (0 when absent). */
    def count(s: Int): Int =
      if (s == Quantizer.Escape) counts(escSlot)
      else if (s.toLong - lo >= 0 && s.toLong - lo < escSlot) counts(s - lo)
      else 0

    /** Fraction of zero codes (the paper's p0). */
    def p0: Double = count(0).toDouble / total

    /** Number of distinct symbols present. */
    def distinct: Int = {
      var n = 0
      var k = 0
      while (k < counts.length) { if (counts(k) > 0) n += 1; k += 1 }
      n
    }

    /** This histogram with `toPlus` of its zero codes counted as 1 and
      * `toMinus` as −1 instead: a copy whose range also holds −1 … 1.
      * The model's reconstruction-drift correction moves its codes this way.
      */
    private[repro] def moveZeros(toPlus: Int, toMinus: Int): Histogram = {
      val newLo = math.min(lo, -1)
      val width = math.max(lo + escSlot - 1, 1) - newLo + 1
      val out = new Array[Int](width + 1)
      System.arraycopy(counts, 0, out, lo - newLo, escSlot)
      out(width) = counts(escSlot)
      out(-newLo) -= toPlus + toMinus
      out(1 - newLo) += toPlus
      out(-1 - newLo) += toMinus
      new Histogram(newLo, out, total)
    }

    /** Slots of the symbols present, in ascending symbol order. */
    def presentSlots: Array[Int] = {
      val out = new Array[Int](distinct)
      var o = 0
      if (counts(escSlot) > 0) { out(0) = escSlot; o = 1 } // Escape is Int.MinValue
      var k = 0
      while (k < escSlot) { if (counts(k) > 0) { out(o) = k; o += 1 }; k += 1 }
      out
    }
  }

  /** Counts `symbols`: one pass for their range, one for the counts.
    * A symbol outside the quantizer's codes raises
    * `IllegalArgumentException` after the range pass, before the counts
    * are allocated.
    */
  def histogram(symbols: Array[Int]): Histogram = {
    var lo = Int.MaxValue
    var hi = Int.MinValue
    var i = 0
    while (i < symbols.length) {
      val s = symbols(i)
      if (s != Quantizer.Escape) {
        if (s < lo) lo = s
        if (s > hi) hi = s
      }
      i += 1
    }
    if (lo > hi) { lo = 0; hi = -1 }
    // a plain throw: a by-name message naming `lo` or `hi` would box both for the range pass
    else if (!inAlphabet(lo) || !inAlphabet(hi))
      throw new IllegalArgumentException(s"symbols $lo to $hi are not all quantizer codes")
    val esc = hi - lo + 1
    val counts = new Array[Int](esc + 1)
    i = 0
    while (i < symbols.length) {
      val s = symbols(i)
      counts(if (s == Quantizer.Escape) esc else s - lo) += 1
      i += 1
    }
    new Histogram(lo, counts, symbols.length)
  }

  /** Depth of each leaf of the Huffman tree over weights `w`, leaves entering
    * the heap in index order. The heap orders by weight alone, so among equal
    * weights the entry order and the heap's layout decide which nodes merge
    * first, and with them the code lengths. Node ids: leaves `0 until d`,
    * then each merge the next id.
    *
    * The heap is a 1-based binary min-heap of node ids in `heap(1..size)`.
    * It makes exactly the swaps of the `mutable.PriorityQueue` (Scala 2.13)
    * under a reversed weight ordering that first defined these codes: an
    * enqueue sifts up while the parent is strictly heavier; a dequeue moves
    * the last node to the root and sifts it down, taking the right child
    * only when it is strictly lighter than the left and stopping once the
    * node is no heavier than that child. Any other tie rule would move code
    * lengths among equal weights, and with them every blob.
    */
  private def leafDepths(w: Array[Long]): Array[Int] = {
    val d = w.length
    if (d <= 1) return Array.fill(d)(1)
    val weight = java.util.Arrays.copyOf(w, 2 * d - 1)
    val parent = new Array[Int](2 * d - 1)
    val heap = new Array[Int](d + 1)
    var size = 0
    def enqueue(x: Int): Unit = {
      size += 1
      var k = size
      while (k > 1 && weight(heap(k >> 1)) > weight(x)) { heap(k) = heap(k >> 1); k >>= 1 }
      heap(k) = x
    }
    def dequeue(): Int = {
      val top = heap(1)
      val x = heap(size)
      size -= 1
      var k = 1
      var sifting = true
      while (sifting && 2 * k <= size) {
        var j = 2 * k
        if (j < size && weight(heap(j + 1)) < weight(heap(j))) j += 1
        if (weight(x) <= weight(heap(j))) sifting = false
        else { heap(k) = heap(j); k = j }
      }
      heap(k) = x
      top
    }
    var i = 0
    while (i < d) { enqueue(i); i += 1 }
    var next = d
    while (size > 1) {
      val a = dequeue(); val b = dequeue()
      weight(next) = weight(a) + weight(b)
      parent(a) = next; parent(b) = next
      enqueue(next)
      next += 1
    }
    // the root (2d-2) has depth 0; every other node sits below a higher id
    val depth = new Array[Int](2 * d - 1)
    var k = 2 * d - 3
    while (k >= 0) { depth(k) = depth(parent(k)) + 1; k -= 1 }
    java.util.Arrays.copyOf(depth, d)
  }

  /** The order in which an immutable `Map` built from a symbol histogram
    * lists the distinct `symbols`, as positions into `symbols`. Streams enter
    * the heap in this order, so ties on weight resolve as they do for
    * [[codeLengths]] on such a map.
    *
    * Up to 4 keys the map is a `Map1`–`Map4`, which keeps the order of the
    * mutable `HashMap` it is built from, so that map is built. Wider maps
    * are a CHAMP trie (`immutable.HashMap`) over the keys' improved hashes,
    * 5 bits a level from the low end. Its order depends on the key set alone
    * and is computed without the map: at each trie node, the keys alone in
    * their fragment come first, in fragment order, then the sub-tries.
    */
  private[compressor] def mapOrder(symbols: Array[Int]): Array[Int] = {
    val n = symbols.length
    if (n <= 4) {
      val m = mutable.HashMap.empty[Int, Int]
      var i = 0
      while (i < n) { m(symbols(i)) = i; i += 1 }
      return m.toMap.valuesIterator.toArray
    }
    val hash = new Array[Int](n)
    var i = 0
    while (i < n) { hash(i) = improve(symbols(i)); i += 1 }
    val pos = Array.range(0, n)
    val spare = new Array[Int](n)
    val out = new Array[Int](n)
    var o = 0
    // the trie node holding pos(from until to): bucket them by the fragment
    // at `shift`, list the lone keys, then descend into the fuller buckets
    def node(from: Int, to: Int, shift: Int): Unit = {
      val bucket = new Array[Int](33) // bucket f starts at from + bucket(f)
      var a = from
      while (a < to) { bucket(((hash(pos(a)) >>> shift) & 31) + 1) += 1; a += 1 }
      var f = 0
      while (f < 32) { bucket(f + 1) += bucket(f); f += 1 }
      val fill = bucket.clone()
      a = from
      while (a < to) {
        val fa = (hash(pos(a)) >>> shift) & 31
        spare(from + fill(fa)) = pos(a)
        fill(fa) += 1
        a += 1
      }
      System.arraycopy(spare, from, pos, from, to - from)
      f = 0
      while (f < 32) { if (bucket(f + 1) - bucket(f) == 1) { out(o) = pos(from + bucket(f)); o += 1 }; f += 1 }
      f = 0
      while (f < 32) { if (bucket(f + 1) - bucket(f) > 1) node(from + bucket(f), from + bucket(f + 1), shift + 5); f += 1 }
    }
    node(0, n, 0)
    out
  }

  /** `scala.collection.Hashing.improve`, the hash spreader of the immutable
    * `HashMap`; a bijection on `Int`, so distinct symbols never collide.
    */
  private def improve(hcode: Int): Int = {
    var h = hcode + ~(hcode << 9)
    h ^= h >>> 14
    h += h << 4
    h ^ (h >>> 10)
  }

  /** The Huffman code of one stream: slot-indexed code lengths (0 for absent
    * symbols) and canonical codes, with the present slots in canonical order.
    */
  final class Code private (val hist: Histogram, val lenOf: Array[Int], val codeOf: Array[Long], order: Array[Int]) {

    /** Number of distinct symbols. */
    def distinct: Int = order.length

    /** Exact payload size in bits. */
    val payloadBits: Long = {
      var bits = 0L
      var i = 0
      while (i < order.length) { val k = order(i); bits += hist.counts(k).toLong * lenOf(k); i += 1 }
      bits
    }

    /** Size in bytes of the section [[write]] writes. */
    def sectionBytes: Int = codebookBytes(distinct) + ((payloadBits + 7) / 8).toInt

    /** Writes the Huffman section of `symbols` (the stream this code was
      * built for) into `out` from byte `at`: the codebook and stream header,
      * then the payload MSB-first. Returns the payload's offset.
      */
    def write(symbols: Array[Int], out: Array[Byte], at: Int): Int = {
      val bb = java.nio.ByteBuffer.wrap(out, at, codebookBytes(distinct))
      bb.putInt(distinct)
      var i = 0
      while (i < order.length) { val k = order(i); bb.putInt(hist.symbol(k)); bb.put(lenOf(k).toByte); i += 1 }
      bb.putInt(symbols.length)
      bb.putLong(payloadBits)
      val payloadAt = bb.position()
      var acc = 0L
      var nbits = 0
      var pos = payloadAt
      i = 0
      while (i < symbols.length) {
        val k = hist.slot(symbols(i))
        val l = lenOf(k)
        acc = (acc << l) | codeOf(k)
        nbits += l
        while (nbits >= 8) {
          nbits -= 8
          out(pos) = (acc >>> nbits).toByte
          pos += 1
        }
        i += 1
      }
      if (nbits > 0) out(pos) = (acc << (8 - nbits)).toByte
      payloadAt
    }
  }

  object Code {
    /** The optimal code of `hist`. */
    def of(hist: Histogram): Code = {
      val present = hist.presentSlots
      val syms = new Array[Int](present.length)
      var i = 0
      while (i < present.length) { syms(i) = hist.symbol(present(i)); i += 1 }
      val slots = mapOrder(syms)
      i = 0
      while (i < slots.length) { slots(i) = present(slots(i)); i += 1 }
      val w = new Array[Long](slots.length)
      i = 0
      while (i < slots.length) { w(i) = hist.counts(slots(i)); i += 1 }
      val depths = leafDepths(w)
      val lenOf = new Array[Int](hist.counts.length)
      i = 0
      while (i < slots.length) { lenOf(slots(i)) = depths(i); i += 1 }
      withLengths(hist, lenOf)
    }

    /** The canonical code with the given slot-indexed lengths: present slots
      * sorted by (length, symbol) take increasing code values.
      */
    private[compressor] def withLengths(hist: Histogram, lenOf: Array[Int]): Code = {
      val present = hist.presentSlots
      // a counting sort by length, stable, so ties keep the ascending symbol order
      val first = new Array[Int](MaxCodeLen + 2) // first(l): slots of length < l
      var i = 0
      while (i < present.length) {
        val l = lenOf(present(i))
        require(l >= 1 && l <= MaxCodeLen, s"code length $l outside 1..$MaxCodeLen")
        first(l + 1) += 1
        i += 1
      }
      var l = 0
      while (l <= MaxCodeLen) { first(l + 1) += first(l); l += 1 }
      val order = new Array[Int](present.length)
      i = 0
      while (i < present.length) {
        val k = present(i)
        order(first(lenOf(k))) = k
        first(lenOf(k)) += 1
        i += 1
      }
      val codeOf = new Array[Long](lenOf.length)
      var code = 0L
      var prevLen = 0
      i = 0
      while (i < order.length) {
        val k = order(i)
        val l = lenOf(k)
        code <<= (l - prevLen)
        prevLen = l
        codeOf(k) = code
        code += 1
        i += 1
      }
      new Code(hist, lenOf, codeOf, order)
    }
  }

  /** symbol -> code length (bits) of the optimal prefix code.
    * Single-symbol alphabets get length 1 (a real stream needs ≥1 bit/symbol).
    */
  def codeLengths(freqs: Map[Int, Long]): Map[Int, Int] = {
    require(freqs.nonEmpty, "empty alphabet")
    require(freqs.valuesIterator.forall(_ > 0), "frequencies must be positive")
    val entries = freqs.toArray
    val depths = leafDepths(entries.map(_._2))
    entries.indices.iterator.map(i => entries(i)._1 -> depths(i)).toMap
  }

  /** Encodes `symbols` with their optimal code; a symbol that is not a
    * quantizer code raises `IllegalArgumentException` ([[histogram]]).
    */
  def encode(symbols: Array[Int]): Array[Byte] = encode(symbols, Code.of(histogram(symbols)))

  /** Encodes `symbols` with `code`, which must have been built for them. */
  private[compressor] def encode(symbols: Array[Int], code: Code): Array[Byte] = {
    val out = new Array[Byte](code.sectionBytes)
    code.write(symbols, out, 0)
    out
  }

  /** Decode a Huffman section that fills `blob`. */
  def decode(blob: Array[Byte]): Array[Int] = decode(blob, 0)

  /** Decode a Huffman section, as [[encode]] writes it, from byte `from` of
    * `blob` to its end, without copying it. Malformed sections raise
    * `IllegalArgumentException`; every count is checked against the bytes
    * present before anything is allocated from it, and every codebook
    * symbol must be a quantizer code before the payload is read.
    */
  def decode(blob: Array[Byte], from: Int): Array[Int] = {
    def check(ok: Boolean, what: => String): Unit =
      if (!ok) throw new IllegalArgumentException(s"corrupt Huffman blob: $what")
    val bb = java.nio.ByteBuffer.wrap(blob, from, blob.length - from)
    check(bb.remaining >= 4, "no symbol count")
    val nsym = bb.getInt
    check(nsym >= 0 && nsym.toLong * 5 + 12 <= bb.remaining, s"$nsym symbols do not fit in ${bb.remaining} bytes")

    // codebook, sorted into canonical order: key = length, then signed symbol
    val keys = new Array[Long](nsym)
    val count = new Array[Int](MaxCodeLen + 1)
    var kraft = 0L // Σ 2^(MaxCodeLen - len), at most 2^MaxCodeLen
    var maxLen = 0
    var i = 0
    while (i < nsym) {
      val s = bb.getInt
      val l = bb.get.toInt
      check(inAlphabet(s), s"symbol $s is not a quantizer code")
      check(l >= 1 && l <= MaxCodeLen, s"code length $l outside 1..$MaxCodeLen")
      kraft += 1L << (MaxCodeLen - l)
      check(kraft <= (1L << MaxCodeLen), "code lengths break the Kraft inequality")
      count(l) += 1
      if (l > maxLen) maxLen = l
      keys(i) = (l.toLong << 32) | ((s ^ Int.MinValue).toLong & 0xffffffffL)
      i += 1
    }
    java.util.Arrays.sort(keys)
    val sym = keys.map(k => k.toInt ^ Int.MinValue)

    val ncodes = bb.getInt
    val payloadBits = bb.getLong
    check(ncodes >= 0 && ncodes <= payloadBits && payloadBits <= 8L * bb.remaining,
      s"$ncodes codes in $payloadBits bits do not fit in ${bb.remaining} bytes")

    // canonical decoding: first code and first symbol index of each length
    val first = new Array[Long](MaxCodeLen + 1)
    val offset = new Array[Int](MaxCodeLen + 1)
    var code = 0L
    var idx = 0
    var l = 1
    while (l <= maxLen) {
      first(l) = code; offset(l) = idx
      code = (code + count(l)) << 1
      idx += count(l)
      l += 1
    }
    // primary table over the next `tb` bits: symbol and length of every code of ≤ tb bits
    val tb = math.min(TableBits, maxLen)
    val tabSym = new Array[Int](1 << tb)
    val tabLen = new Array[Byte](1 << tb)
    i = 0
    while (i < nsym && (keys(i) >>> 32) <= tb) {
      val li = (keys(i) >>> 32).toInt
      val c = first(li) + (i - offset(li))
      val from = (c << (tb - li)).toInt
      val to = ((c + 1) << (tb - li)).toInt
      java.util.Arrays.fill(tabSym, from, to, sym(i))
      java.util.Arrays.fill(tabLen, from, to, li.toByte)
      i += 1
    }

    val out = new Array[Int](ncodes)
    val tabMask = (1L << tb) - 1
    var pos = bb.position()
    val end = pos + ((payloadBits + 7) / 8).toInt
    var acc = 0L // the low `have` bits are loaded and not yet consumed
    var have = 0
    var left = payloadBits // payload bits not yet consumed
    var produced = 0
    while (produced < ncodes) {
      while (have <= 56 && pos < end) {
        acc = (acc << 8) | (blob(pos) & 0xff)
        have += 8
        pos += 1
      }
      // past the last byte `have` covers every bit left, so a code fits if it is within `left`
      val peek = (if (have >= tb) acc >>> (have - tb) else acc << (tb - have)) & tabMask
      var len = tabLen(peek.toInt).toInt
      if (len > 0 && len <= left) out(produced) = tabSym(peek.toInt)
      else {
        len = tb + 1
        var found = false
        while (!found && len <= maxLen && len <= left) {
          val c = (acc >>> (have - len)) & ((1L << len) - 1)
          val k = c - first(len)
          if (k >= 0 && k < count(len)) {
            out(produced) = sym(offset(len) + k.toInt)
            found = true
          } else len += 1
        }
        // a by-name message that named the var `produced` would box it for the whole loop
        val at = produced
        check(found, s"no code matches at symbol $at")
      }
      have -= len
      left -= len
      produced += 1
    }
    out
  }

  /** Serialized codebook size in bytes for `n` distinct symbols (our format). */
  def codebookBytes(nDistinct: Int): Int = 4 + nDistinct * 5 + 4 + 8
}
