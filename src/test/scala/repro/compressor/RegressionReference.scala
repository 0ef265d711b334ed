package repro.compressor

import repro.core.Field
import scala.collection.mutable.ArrayBuffer

/** The per-point regression kernels that [[RegressionPredictor.foreachRowInBlock]]
  * and [[RegressionPredictor.blockBox]] replaced, kept as the reference
  * definition: an odometer over the grid of block corners, one over every
  * point of a block, the normal equations summed point by point over a 2-D
  * array, and the plane evaluated at each point from b0 in dim order.
  */
object RegressionReference {

  /** Calls `f(lo, hi)` for the blocks of edge [[RegressionPredictor.blockEdge]]
    * in row-major order of their corners, `hi` exclusive and clipped at the
    * field edge; both arrays are fresh for each block.
    */
  def foreachBlock(dims: Array[Int])(f: (Array[Int], Array[Int]) => Unit): Unit = {
    val ndim = dims.length
    val be = RegressionPredictor.blockEdge(ndim)
    val corner = new Array[Int](ndim)
    var done = false
    while (!done) {
      f(corner.clone(), Array.tabulate(ndim)(d => math.min(dims(d), corner(d) + be)))
      var i = ndim - 1
      var carry = true
      while (i >= 0 && carry) {
        corner(i) += be
        if (corner(i) >= dims(i)) { corner(i) = 0; i -= 1 } else carry = false
      }
      if (carry) done = true
    }
  }

  /** Calls `f(idx, coords)` for every point of the block from `lo` to `hi`
    * (exclusive) in row-major order, `idx` under row-major `strides`.
    */
  def foreachPointInBlock(strides: Array[Int], lo: Array[Int], hi: Array[Int])(f: (Int, Array[Int]) => Unit): Unit = {
    val ndim = lo.length
    val coords = lo.clone()
    var done = false
    while (!done) {
      var idx = 0
      var d = 0
      while (d < ndim) { idx += coords(d) * strides(d); d += 1 }
      f(idx, coords)
      var i = ndim - 1
      var carry = true
      while (i >= 0 && carry) {
        coords(i) += 1
        if (coords(i) == hi(i)) { coords(i) = lo(i); i -= 1 } else carry = false
      }
      if (carry) done = true
    }
  }

  /** Least-squares coefficients of the block, AᵀA and Aᵀb summed per point. */
  def fitBlock(field: Field, lo: Array[Int], hi: Array[Int]): Array[Double] = {
    val ndim = lo.length
    val k = ndim + 1
    val ata = Array.ofDim[Double](k, k)
    val atb = new Array[Double](k)
    val x = new Array[Double](k)
    foreachPointInBlock(field.strides, lo, hi) { (idx, coords) =>
      x(0) = 1.0
      for (d <- 0 until ndim) x(d + 1) = (coords(d) - lo(d)).toDouble
      for (i <- 0 until k) {
        for (j <- 0 until k) ata(i)(j) += x(i) * x(j)
        atb(i) += x(i) * field.data(idx)
      }
    }
    RegressionPredictor.solve(ata, atb).getOrElse {
      val out = new Array[Double](k)
      out(0) = atb(0) / math.max(1.0, ata(0)(0))
      out
    }
  }

  /** The plane at `coords` in the block at `lo`, summed from b0 in dim order. */
  def evalPlane(plane: Array[Float], coords: Array[Int], lo: Array[Int]): Double = {
    var p = plane(0).toDouble
    for (d <- lo.indices) p += plane(d + 1).toDouble * (coords(d) - lo(d))
    p
  }

  /** [[RegressionPredictor.compress]] point by point. */
  def compress(field: Field, quant: Quantizer): PredictorOutput = {
    val codes = ArrayBuffer.empty[Int]
    val unpred = ArrayBuffer.empty[Double]
    val side = java.nio.ByteBuffer.allocate(RegressionPredictor.sideBytes(field.dims).toInt)
    val recon = new Array[Double](field.size)
    foreachBlock(field.dims) { (lo, hi) =>
      val plane = fitBlock(field, lo, hi).map(_.toFloat)
      plane.foreach(side.putFloat)
      foreachPointInBlock(field.strides, lo, hi) { (idx, coords) =>
        val pred = evalPlane(plane, coords, lo)
        val v = field.data(idx)
        val code = QuantizerReference.code(quant, pred, v)
        codes += code
        if (code == Quantizer.Escape) { unpred += v; recon(idx) = v }
        else recon(idx) = quant.reconstruct(pred, code)
      }
    }
    PredictorOutput(codes.toArray, unpred.toArray, side.array(), Field(recon, field.dims))
  }

  /** Residuals, data minus the block's Float-rounded plane, of every block
    * in block order, row-major within a block.
    */
  def fullErrors(field: Field): Array[Double] = {
    val buf = ArrayBuffer.empty[Double]
    foreachBlock(field.dims) { (lo, hi) =>
      val plane = fitBlock(field, lo, hi).map(_.toFloat)
      foreachPointInBlock(field.strides, lo, hi) { (idx, coords) =>
        buf += field.data(idx) - evalPlane(plane, coords, lo)
      }
    }
    buf.toArray
  }
}
