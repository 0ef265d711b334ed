package repro.compressor

import repro.core.Field
import scala.collection.mutable.ArrayBuilder

/** Output of a predictor's compression pass.
  *
  * @param codes         quantization codes in the predictor's traversal order
  *                      ([[Quantizer.Escape]] marks unpredictable points)
  * @param unpredictable verbatim values for escape codes, in traversal order
  * @param side          predictor side-channel (anchors / regression coeffs),
  *                      must be byte-exact for decompression
  * @param recon         the reconstructed field (what the decompressor yields)
  */
final case class PredictorOutput(
    codes: Array[Int],
    unpredictable: Array[Double],
    side: Array[Byte],
    recon: Field,
) {
  /** Side-channel size in bytes (counted into the compressed size). */
  def sideBytes: Int = side.length
}

/** A prediction-based compressor stage: predicts each point from already
  * reconstructed values, quantizes the prediction error, and emits codes in
  * a deterministic traversal order. Each predictor has one walk that
  * `compress` and `decompress` both run, handing every predicted point to a
  * [[PointCodec]] that codes or decodes it, so the two sides predict from
  * the same reconstruction bit for bit.
  */
trait Predictor extends Serializable {
  def name: String

  /** Compress: scan the field, produce codes + side data + reconstruction. */
  def compress(field: Field, quant: Quantizer): PredictorOutput

  /** Decompress: rebuild the field from codes/unpredictables/side data. */
  def decompress(dims: Array[Int], quant: Quantizer, codes: Array[Int],
                 unpredictable: Array[Double], side: Array[Byte]): Field
}

object Predictor {
  /** Every predictor; a blob stores its index here as the predictor id. */
  val all: Seq[Predictor] = Seq(LorenzoPredictor, InterpolationPredictor, RegressionPredictor)

  def byId(id: Int): Predictor = all(id)

  /** The index of `p` itself in [[all]]: a namesake would decode as another. */
  def idOf(p: Predictor): Int = {
    val id = all.indexOf(p)
    require(id >= 0, s"predictor ${p.name} is not in Predictor.all, so a blob has no id for it")
    id
  }

  /** Reject a side channel whose length is not the `expected` byte count,
    * before a decompressor reads it.
    */
  private[compressor] def requireSideBytes(side: Array[Byte], expected: Long): Unit =
    if (side.length != expected)
      throw new IllegalArgumentException(s"expected $expected side-channel bytes, got ${side.length}")
}

/** The point step of every predictor's walk, and the one place that handles
  * escapes: the walk predicts each point from [[recon]] and hands the
  * prediction to the codec, which stores the point's reconstruction in
  * `recon` and returns it.
  */
private[compressor] sealed abstract class PointCodec {
  val recon: Array[Double]
  def apply(idx: Int, pred: Double): Double
}

private[compressor] object PointCodec {

  /** Codes a field in visiting order through [[Quantizer.quantize]]: a
    * code, reconstructing to `pred + q·interval` from the double code with
    * no `Int` round trip, or [[Quantizer.Escape]] with the value kept as an
    * unpredictable.
    */
  final class Encode(field: Field, quant: Quantizer, nCodes: Int) extends PointCodec {
    val recon = new Array[Double](field.size)
    private[this] val data = field.data
    private[this] val codes = new Array[Int](nCodes)
    private[this] val unpred = new ArrayBuilder.ofDouble
    private[this] var c = 0

    def apply(idx: Int, pred: Double): Double = {
      val v = data(idx)
      val q = quant.quantize(pred, v)
      val code = if (q.isNaN) Quantizer.Escape else q.toInt
      val rv = pred + q * quant.interval
      codes(c) = code; c += 1
      val out = if (code == Quantizer.Escape) { unpred += v; v } else rv
      recon(idx) = out
      out
    }

    def output(side: Array[Byte]): PredictorOutput = PredictorOutput(codes, unpred.result(), side, Field(recon, field.dims))
  }

  /** Replays `codes`: `reconstruct(pred, code)`, or the next unpredictable
    * value for an escape. A code count other than `nCodes` (checked before
    * `recon` is allocated), an escape with no unpredictable value left and,
    * in [[field]], an unpredictable value that no escape used raise
    * `IllegalArgumentException`.
    */
  final class Decode(dims: Array[Int], quant: Quantizer, codes: Array[Int], nCodes: Long,
                     unpredictable: Array[Double]) extends PointCodec {
    require(codes.length == nCodes, s"expected $nCodes codes, got ${codes.length}")
    val recon = new Array[Double](dims.product)
    private[this] var c = 0
    private[this] var u = 0

    def apply(idx: Int, pred: Double): Double = {
      val code = codes(c); c += 1
      val rv = if (code != Quantizer.Escape) quant.reconstruct(pred, code) else {
        require(u < unpredictable.length, s"escape code with no unpredictable value left (all $u used)")
        u += 1
        unpredictable(u - 1)
      }
      recon(idx) = rv
      rv
    }

    /** The decoded field, once the walk has visited every point. */
    def field: Field = {
      require(u == unpredictable.length, s"${unpredictable.length - u} unpredictable values that no escape code uses")
      Field(recon, dims)
    }
  }
}

/** First-order Lorenzo predictor [Ibarria et al. 2003], dimension-generic.
  *
  * pred(x) = Σ over non-empty neighbor subsets S of (-1)^(|S|+1) · recon(x - S),
  * with out-of-range neighbors treated as 0 (SZ convention). Scans row-major
  * and predicts from the reconstructed buffer, as real SZ does.
  *
  * Which neighbours are in range depends only on the point's boundary
  * pattern: bit d is set when coordinate d is 0. [[LorenzoPredictor.Stencils]]
  * holds the stencil of each of the 2^ndim patterns, and
  * [[LorenzoPredictor.Stencils.foreachRow]] walks a field row by row, along
  * which the pattern is fixed past the first point. Compress, decompress and
  * the full-scan reference walk whole fields through it; the sampler and the
  * model's patch simulation walk their patches over `PatchSim.Shape`'s rows.
  */
object LorenzoPredictor extends Predictor {
  val name = "lorenzo"

  /** The Lorenzo stencil of one boundary pattern: the in-range neighbour
    * subsets as offsets back from the point's linear index, with their signs,
    * in ascending subset-mask order.
    */
  final class Stencil(val offs: Array[Int], val signs: Array[Double]) {
    /** Position of the offset-1 term (the point just before in row-major
      * order; a single-dim subset, so its sign is +1), or `offs.length`
      * when the stencil has none.
      */
    private[this] val prevAt: Int = { val k = offs.indexOf(1); if (k < 0) offs.length else k }

    /** Whether the stencil reads the point just before, `idx - 1`. */
    val readsPrev: Boolean = prevAt < offs.length

    /** Prediction at linear index `idx` from `buf`, summed from 0.0 in
      * stencil order.
      */
    def predict(buf: Array[Double], idx: Int): Double = {
      var pred = 0.0
      var k = 0
      while (k < offs.length) { pred += signs(k) * buf(idx - offs(k)); k += 1 }
      pred
    }

    /** [[predict]] with the offset-1 term taken from `prev`, which must equal
      * `buf(idx - 1)`: the same terms in the same order, so the same bits,
      * but a scan can carry its last reconstruction in a register instead
      * of reading it back from `buf`.
      */
    def predict(buf: Array[Double], idx: Int, prev: Double): Double = {
      var pred = 0.0
      var k = 0
      while (k < prevAt) { pred += signs(k) * buf(idx - offs(k)); k += 1 }
      if (k < offs.length) { pred += prev; k += 1 }
      while (k < offs.length) { pred += signs(k) * buf(idx - offs(k)); k += 1 }
      pred
    }
  }

  object Stencil {
    /** The stencil of boundary `pattern` under row-major `strides`: every
      * non-empty subset mask of the dims that avoids the pattern's bits.
      */
    def apply(pattern: Int, strides: Array[Int]): Stencil = {
      val ndim = strides.length
      val size = (1 << (ndim - Integer.bitCount(pattern))) - 1
      val offs = new Array[Int](size)
      val signs = new Array[Double](size)
      var k = 0
      var mask = 1
      while (mask < (1 << ndim)) {
        if ((mask & pattern) == 0) {
          var d = 0
          while (d < ndim) { if ((mask & (1 << d)) != 0) offs(k) += strides(d); d += 1 }
          signs(k) = if (Integer.bitCount(mask) % 2 == 1) 1.0 else -1.0
          k += 1
        }
        mask += 1
      }
      new Stencil(offs, signs)
    }
  }

  /** The callback of [[Stencils.foreachRow]]: a row of `len` points starting
    * at linear index `start`, whose first point predicts with `head` and the
    * rest with `body`. `coords` holds the coordinates of the row's first
    * point; it is the walk's own odometer, to be read, not written, and only
    * during the call.
    */
  abstract class RowVisitor {
    def apply(start: Int, len: Int, head: Stencil, body: Stencil, coords: Array[Int]): Unit
  }

  /** The stencils of every boundary pattern of a field with these dims,
    * indexed by pattern.
    */
  final class Stencils(val dims: Array[Int]) {
    private[this] val strides = Field.strides(dims)
    private[this] val table: Array[Stencil] = Array.tabulate(1 << dims.length)(Stencil(_, strides))

    def apply(pattern: Int): Stencil = table(pattern)

    /** Visit the field's rows (last dim fastest) in row-major order. */
    def foreachRow(f: RowVisitor): Unit = {
      val last = dims.length - 1
      Field.foreachRow(strides, new Array[Int](dims.length), dims, Array.fill(dims.length)(1)) { (start, len, coords) =>
        var outer = 0 // pattern bits of the outer coordinates
        var d = 0
        while (d < last) { if (coords(d) == 0) outer |= 1 << d; d += 1 }
        f(start, len, table(outer | (1 << last)), table(outer), coords)
      }
    }
  }

  object Stencils {
    def apply(dims: Array[Int]): Stencils = new Stencils(dims)
  }

  def compress(field: Field, quant: Quantizer): PredictorOutput = {
    val enc = new PointCodec.Encode(field, quant, field.size)
    walk(field.dims, enc)
    enc.output(Array.emptyByteArray)
  }

  def decompress(dims: Array[Int], quant: Quantizer, codes: Array[Int],
                 unpredictable: Array[Double], side: Array[Byte]): Field = {
    Predictor.requireSideBytes(side, 0)
    val dec = new PointCodec.Decode(dims, quant, codes, dims.product, unpredictable)
    walk(dims, dec)
    dec.field
  }

  /** The walk of compress and decompress: [[Stencils.foreachRow]]'s rows,
    * each point predicted from the reconstruction, with the previous point's
    * carried in a register, and handed to `codec`.
    */
  private def walk(dims: Array[Int], codec: PointCodec): Unit = {
    val recon = codec.recon
    Stencils(dims).foreachRow { (start, len, head, body, _) =>
      var prev = codec(start, head.predict(recon, start))
      var idx = start + 1
      while (idx < start + len) { prev = codec(idx, body.predict(recon, idx, prev)); idx += 1 }
    }
  }
}

/** Multilevel linear-interpolation predictor (SZ3-style [Zhao et al., ICDE'21]).
  *
  * Anchor points on the coarsest 2^L grid are stored verbatim in the side
  * channel; each level then halves the grid spacing, one dimension at a time,
  * predicting midpoints as the average of the two known neighbors along that
  * dimension (boundary midpoints copy the left neighbor). Codes are emitted in
  * the deterministic level/dim traversal order that `decompress` replays.
  */
object InterpolationPredictor extends Predictor {
  val name = "interp"

  /** Coarsest grid spacing. Anchors are dims/64-ish per dim — tiny overhead. */
  val MaxStride = 64

  def compress(field: Field, quant: Quantizer): PredictorOutput = {
    val nAnchors = anchorCount(field.dims).toInt
    val enc = new PointCodec.Encode(field, quant, field.size - nAnchors)
    val anchors = java.nio.ByteBuffer.allocate(nAnchors * 8)
    walk(field.dims, enc) { idx => val v = field.data(idx); anchors.putDouble(v); v }
    enc.output(anchors.array())
  }

  def decompress(dims: Array[Int], quant: Quantizer, codes: Array[Int],
                 unpredictable: Array[Double], side: Array[Byte]): Field = {
    val nAnchors = anchorCount(dims)
    Predictor.requireSideBytes(side, nAnchors * 8)
    val dec = new PointCodec.Decode(dims, quant, codes, dims.product - nAnchors, unpredictable)
    val anchors = java.nio.ByteBuffer.wrap(side)
    walk(dims, dec)(_ => anchors.getDouble)
    dec.field
  }

  /** The walk of compress and decompress: [[traverse]]'s lines, each anchor
    * set to `anchor(idx)`, each midpoint predicted from the reconstruction
    * and handed to `codec`.
    */
  private def walk(dims: Array[Int], codec: PointCodec)(anchor: Int => Double): Unit = {
    val recon = codec.recon
    traverse(dims) { (first, step, count, back, right) =>
      var k = 0
      var idx = first
      while (k < count) {
        // typed Unit, so the discarded reconstruction is not boxed
        if (back == 0) recon(idx) = anchor(idx)
        else codec(idx, predict(recon, idx, back, k < right)): Unit
        k += 1
        idx += step
      }
    }
  }

  /** The callback of [[traverse]]: a line of `count` points at linear
    * indices `first + k·step`, whose neighbours lie at `idx ∓ back`. The
    * first `right` points have both; the rest sit at the right boundary.
    * Anchor lines have `back` = 0: their points are stored, not predicted.
    * A lambda converts to it.
    */
  abstract class LineVisitor {
    def apply(first: Int, step: Int, count: Int, back: Int, right: Int): Unit
  }

  /** The interpolation rule at the non-anchor point `idx`: the mean of its
    * neighbours `idx ∓ back` in `buf`, or the left one at the right boundary
    * (no right neighbour). Compress and decompress apply it to the
    * reconstruction, the sampler and the full scan to the original values.
    */
  def predict(buf: Array[Double], idx: Int, back: Int, hasRight: Boolean): Double =
    if (hasRight) 0.5 * (buf(idx - back) + buf(idx + back)) else buf(idx - back)

  /** Number of anchor points (coordinates ≡ 0 mod [[MaxStride]]) for dims. */
  def anchorCount(dims: Array[Int]): Long =
    dims.map(d => ((d - 1) / MaxStride + 1).toLong).product

  /** The deterministic traversal, one line along the last dim at a time:
    * every point is visited exactly once, anchors first (coordinates
    * ≡ 0 mod [[MaxStride]]), then per level (stride s = MaxStride,
    * MaxStride/2, …, 2, h = s/2) and per dimension d the midpoints
    * (coordinates ≡ 0 mod h before d, ≡ h mod s at d, ≡ 0 mod s after d),
    * whose neighbours along d lie `back` = h·stride(d) away. Lines and the
    * points within them come in row-major order.
    */
  def traverse(dims: Array[Int])(f: LineVisitor): Unit = {
    val ndim = dims.length
    val strides = Field.strides(dims)
    val steps = Array.fill(ndim)(MaxStride)
    val offs = new Array[Int](ndim)
    gridLines(dims, strides, steps, offs, -1, 0, f)
    var s = MaxStride
    while (s >= 2) {
      val h = s / 2
      var d = 0
      while (d < ndim) {
        var j = 0
        while (j < ndim) {
          steps(j) = if (j < d) h else s
          offs(j) = if (j == d) h else 0
          j += 1
        }
        gridLines(dims, strides, steps, offs, d, h, f)
        d += 1
      }
      s = h
    }
  }

  /** The lines of the grid {offs(j) + m·steps(j)} ∩ dims, in row-major
    * order, for midpoints along dim `d` at half-stride `h` (anchors: d = -1).
    */
  private def gridLines(dims: Array[Int], strides: Array[Int], steps: Array[Int], offs: Array[Int],
                        d: Int, h: Int, f: LineVisitor): Unit = {
    val last = dims.length - 1
    val step = steps(last)
    val back = if (d < 0) 0 else h * strides(d)
    // along the last dim, the points whose right neighbour (coordinate + h)
    // is still inside; along an outer dim, all of a line's points or none
    val room = dims(last) - h - offs(last)
    val rightAlongLast = if (room <= 0) 0 else (room - 1) / step + 1
    Field.foreachRow(strides, offs, dims, steps) { (first, count, coords) =>
      val right =
        if (d < 0) 0
        else if (d == last) math.min(count, rightAlongLast)
        else if (coords(d) + h < dims(d)) count else 0
      f(first, step, count, back, right)
    }
  }
}

/** Block-wise linear-regression predictor (SZ "high-ratio" mode
  * [Liang et al., BigData'18]). Each block of edge [[RegressionPredictor.blockEdge]]
  * is fit with a least-squares hyperplane f(x) = b0 + Σ b_d·x_d on the original
  * data; coefficients are rounded to Float and stored in the side channel
  * (the decompressor uses the identical rounded values), then per-point
  * residuals are quantized.
  *
  * [[RegressionPredictor.blockBox]] gives a block's box from its index, and
  * [[RegressionPredictor.foreachRowInBlock]] walks the box row by row along
  * the last dim, where the prediction grows by the last coefficient per
  * point. Compress, decompress, the fit, the sampler and the full scan all
  * enumerate and walk blocks through them.
  */
object RegressionPredictor extends Predictor {
  val name = "regression"

  /** Block edge per dimensionality: ≥~200 points per block keeps the 4-float
    * coefficient overhead well under 1 bit/point. SZ uses 6 for 3-D.
    */
  def blockEdge(ndim: Int): Int = ndim match {
    case 1 => 128
    case 2 => 12
    case 3 => 6
    case _ => 4
  }

  def compress(field: Field, quant: Quantizer): PredictorOutput = {
    val enc = new PointCodec.Encode(field, quant, field.size)
    val side = java.nio.ByteBuffer.allocate(sideBytes(field.dims).toInt)
    val planes = side.asFloatBuffer
    walk(field.dims, enc) { (lo, hi) => val plane = fitPlane(field, lo, hi); planes.put(plane); plane }
    enc.output(side.array())
  }

  def decompress(dims: Array[Int], quant: Quantizer, codes: Array[Int],
                 unpredictable: Array[Double], side: Array[Byte]): Field = {
    Predictor.requireSideBytes(side, sideBytes(dims))
    val dec = new PointCodec.Decode(dims, quant, codes, dims.product, unpredictable)
    val planes = java.nio.ByteBuffer.wrap(side).asFloatBuffer
    walk(dims, dec) { (_, _) => val plane = new Array[Float](dims.length + 1); planes.get(plane); plane }
    dec.field
  }

  /** The walk of compress and decompress: the blocks in index order, each
    * block's box from [[blockBox]] into two arrays reused across blocks,
    * its plane from `plane(lo, hi)`, and the points of its rows
    * ([[foreachRowInBlock]]) predicted from the plane and handed to `codec`.
    */
  private def walk(dims: Array[Int], codec: PointCodec)(plane: (Array[Int], Array[Int]) => Array[Float]): Unit = {
    val strides = Field.strides(dims)
    val lo = new Array[Int](dims.length)
    val hi = new Array[Int](dims.length)
    val nBlocks = blockCount(dims)
    var b = 0
    while (b < nBlocks) {
      blockBox(dims, b, lo, hi)
      val p = plane(lo, hi)
      val slope = p(p.length - 1).toDouble
      foreachRowInBlock(strides, lo, hi) { (start, len, coords) =>
        val base = rowBase(p, coords, lo)
        var j = 0
        while (j < len) { codec(start + j, base + slope * j); j += 1 }
      }
      b += 1
    }
  }

  /** Side-channel bytes for dims: ndim + 1 floats per block. */
  def sideBytes(dims: Array[Int]): Long = blockCount(dims).toLong * (dims.length + 1) * 4

  /** Number of blocks of edge [[blockEdge]] that tile dims. */
  def blockCount(dims: Array[Int]): Int = {
    val be = blockEdge(dims.length)
    dims.map(d => (d + be - 1) / be).product
  }

  /** The box of block `b`: its low corner into `lo` and its exclusive high
    * corner, clipped at the field edge, into `hi`. Block indices count
    * row-major over the ⌈dims/edge⌉ grid of blocks, the one block order of
    * compress, decompress, the side channel and the sampler; one block's
    * box costs O(ndim), not a walk.
    */
  def blockBox(dims: Array[Int], b: Int, lo: Array[Int], hi: Array[Int]): Unit = {
    val be = blockEdge(dims.length)
    var rest = b
    var d = dims.length - 1
    while (d >= 0) {
      val perDim = (dims(d) + be - 1) / be
      lo(d) = rest % perDim * be
      hi(d) = math.min(dims(d), lo(d) + be)
      rest /= perDim
      d -= 1
    }
  }

  /** The block's plane as stored and predicted from: the [[fitBlock]]
    * coefficients rounded to Float.
    */
  def fitPlane(field: Field, lo: Array[Int], hi: Array[Int]): Array[Float] = {
    val coeffs = fitBlock(field, lo, hi)
    val plane = new Array[Float](coeffs.length)
    var i = 0
    while (i < coeffs.length) { plane(i) = coeffs(i).toFloat; i += 1 }
    plane
  }

  /** Least-squares fit of b0 + Σ b_d·(x_d - lo_d) over the block. Falls back
    * to the block mean if the normal equations are singular (1-point blocks).
    *
    * AᵀA sums products of block offsets. Within a block they are small
    * integers, so every partial sum is exact and AᵀA equals the closed form
    * Π_d Σ_o o^p over the block's extents, whatever the summation order.
    * Aᵀb is summed over the points in row-major order.
    */
  def fitBlock(field: Field, lo: Array[Int], hi: Array[Int]): Array[Double] = {
    val ndim = lo.length
    val k = ndim + 1
    val data = field.data
    val atb = new Array[Double](k)
    foreachRowInBlock(field.strides, lo, hi) { (start, len, coords) =>
      var j = 0
      while (j < len) {
        val v = data(start + j)
        atb(0) += v
        var d = 0
        while (d < ndim - 1) { atb(d + 1) += (coords(d) - lo(d)) * v; d += 1 }
        atb(k - 1) += j * v
        j += 1
      }
    }
    // Σ of offset^p, p = 0, 1, 2, over the block's extent along dim d
    def powerSum(d: Int, p: Int): Long = {
      val m = (hi(d) - lo(d)).toLong
      if (p == 0) m else if (p == 1) m * (m - 1) / 2 else (m - 1) * m * (2 * m - 1) / 6
    }
    val ata = Array.ofDim[Double](k, k)
    var r = 0
    while (r < k) {
      var s = 0
      while (s < k) {
        var sum = 1L
        var d = 0
        while (d < ndim) {
          sum *= powerSum(d, (if (r == d + 1) 1 else 0) + (if (s == d + 1) 1 else 0))
          d += 1
        }
        ata(r)(s) = sum.toDouble
        s += 1
      }
      r += 1
    }
    solve(ata, atb).getOrElse {
      // singular (degenerate block): constant prediction at block mean
      val out = new Array[Double](k)
      out(0) = atb(0) / math.max(1.0, ata(0)(0))
      out
    }
  }

  /** The prediction at the first point of a row, at `coords`, of the block
    * whose low corner is `lo`: `plane` summed from b0 in dim order over the
    * offsets from `lo` along every dim but the last. The row's point j
    * predicts `rowBase + b_last·j`, which completes that sum.
    */
  def rowBase(plane: Array[Float], coords: Array[Int], lo: Array[Int]): Double = {
    var p = plane(0).toDouble
    var d = 0
    while (d < lo.length - 1) { p += plane(d + 1).toDouble * (coords(d) - lo(d)); d += 1 }
    p
  }

  /** Gaussian elimination with partial pivoting; None if singular. */
  private[compressor] def solve(aIn: Array[Array[Double]], bIn: Array[Double]): Option[Array[Double]] = {
    val k = bIn.length
    val a = aIn.map(_.clone())
    val b = bIn.clone()
    var col = 0
    while (col < k) {
      var piv = col
      var r = col + 1
      while (r < k) { if (math.abs(a(r)(col)) > math.abs(a(piv)(col))) piv = r; r += 1 }
      if (math.abs(a(piv)(col)) < 1e-12) return None
      if (piv != col) { val t = a(piv); a(piv) = a(col); a(col) = t; val tb = b(piv); b(piv) = b(col); b(col) = tb }
      r = col + 1
      while (r < k) {
        val fac = a(r)(col) / a(col)(col)
        var c2 = col
        while (c2 < k) { a(r)(c2) -= fac * a(col)(c2); c2 += 1 }
        b(r) -= fac * b(col)
        r += 1
      }
      col += 1
    }
    val out = new Array[Double](k)
    var i = k - 1
    while (i >= 0) {
      var s = b(i)
      var j = i + 1
      while (j < k) { s -= a(i)(j) * out(j); j += 1 }
      out(i) = s / a(i)(i)
      i -= 1
    }
    Some(out)
  }

  /** Unit steps for up to 4 dims: a block's rows hold every point. */
  private[this] val UnitSteps = Array.fill(4)(1)

  /** Visit the rows (last dim fastest) of the block from `lo` to `hi`
    * (exclusive) in row-major order, with linear indices under row-major
    * `strides`: each row's start index, length and the coordinates of its
    * first point.
    */
  def foreachRowInBlock(strides: Array[Int], lo: Array[Int], hi: Array[Int])(f: Field.RowVisitor): Unit =
    Field.foreachRow(strides, lo, hi, UnitSteps)(f)
}
