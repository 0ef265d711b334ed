package repro.compressor

import java.io.ByteArrayOutputStream
import java.util.zip.{Deflater, Inflater}

/** Dictionary-style lossless stage applied after Huffman.
  *
  * Stand-in for the paper's Zstandard/Gzip stage (Fig. 3): Deflate is the
  * Gzip codec (LZ77 + Huffman), available in the JDK, so the measured
  * "Huffman + lossless" sizes exercise the same redundancy the paper's
  * RLE-based model (Eqs. 4–8) captures — runs of the dominant zero code.
  */
object Lossless {

  def compress(data: Array[Byte]): Array[Byte] = compress(data, 0)

  /** Deflates `data` from byte `from` to its end, without copying it. */
  def compress(data: Array[Byte], from: Int): Array[Byte] = {
    val d = new Deflater()
    d.setInput(data, from, data.length - from)
    d.finish()
    val out = new ByteArrayOutputStream((data.length - from) / 2 + 64)
    val buf = new Array[Byte](64 * 1024)
    while (!d.finished()) {
      val n = d.deflate(buf)
      out.write(buf, 0, n)
    }
    d.end()
    out.toByteArray
  }

  def decompress(data: Array[Byte]): Array[Byte] = {
    val inf = new Inflater()
    inf.setInput(data)
    val out = new ByteArrayOutputStream(data.length * 4 + 64)
    val buf = new Array[Byte](64 * 1024)
    var done = inf.finished()
    while (!done) {
      val n = inf.inflate(buf)
      if (n > 0) out.write(buf, 0, n)
      else if (inf.finished() || inf.needsDictionary()) done = true
      else if (inf.needsInput()) throw new IllegalArgumentException("truncated deflate stream")
    }
    inf.end()
    out.toByteArray
  }
}
