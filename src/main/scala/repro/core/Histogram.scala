package repro.core

import repro.compressor.{Huffman, Quantizer}

/** Quantization-code histogram (§III-D) — the interface between the predictor
  * module (sampled prediction errors) and the encoder module (bit-rate
  * estimation).
  *
  * @param counts code -> count ([[Quantizer.Escape]] appears
  *               as its own symbol for out-of-range codes)
  * @param total  total number of sampled codes
  */
final case class CodeHistogram(counts: Map[Int, Long], total: Long) {
  require(total > 0, "empty histogram")

  /** Fraction of zero codes (the paper's p0). */
  def p0: Double = counts.getOrElse(0, 0L).toDouble / total

  /** Fraction of the most frequent code. */
  def pMax: Double = counts.values.max.toDouble / total

  /** Probability of each code. */
  def probabilities: Map[Int, Double] = counts.map { case (c, n) => c -> n.toDouble / total }

  def distinct: Int = counts.size
}

object CodeHistogram {

  /** Histogram of `codes`, counted on primitive arrays. The map is a
    * mutable `HashMap` over the present codes, then `toMap`: the mutable map
    * iterates in an order fixed by its key set alone, and `toMap` keeps that
    * order for up to 4 codes. The encoder model sums probabilities in the
    * map's order, so this construction is part of every estimate's last bits.
    */
  def of(codes: Array[Int]): CodeHistogram = {
    val h = Huffman.histogram(codes)
    val m = scala.collection.mutable.HashMap.empty[Int, Long]
    h.presentSlots.foreach(k => m(h.symbol(k)) = h.counts(k).toLong)
    CodeHistogram(m.toMap, codes.length.toLong)
  }
}

object Histogram {

  /** Quantize sampled prediction errors at error bound `eb` into a code
    * histogram (linear-scaling quantization, same escape radius as the real
    * quantizer). The Eq. 9 correction is [[Feedback]]'s.
    */
  def fromErrors(errors: Array[Double], eb: Double): CodeHistogram = {
    require(eb > 0, "error bound must be positive")
    val codes = new Array[Int](errors.length)
    val interval = 2 * eb
    var i = 0
    while (i < errors.length) { codes(i) = code(errors(i), interval); i += 1 }
    CodeHistogram.of(codes)
  }

  /** The code of one sampled error under bins of width `interval` (2·eb). */
  private[core] def code(error: Double, interval: Double): Int = {
    val c = math.rint(error / interval)
    if (c.isNaN || math.abs(c) >= Quantizer.DefaultRadius) Quantizer.Escape else c.toInt
  }
}
