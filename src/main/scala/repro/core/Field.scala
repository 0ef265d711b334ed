package repro.core

/** An n-dimensional scalar field stored row-major (last dimension fastest).
  *
  * This is the unit of work everywhere: predictors scan it, the sampler
  * samples it, Spark chunks carry a serialized `(dims, data)` pair of it.
  * Supports 1–4 dimensions, which covers every dataset in the paper's
  * Table I (HACC/Brown 1-D … EXAFEL 4-D).
  *
  * The statistics (`valueRange`, `mean`, `variance`) are computed once, on
  * first read, and kept: `data` must not change once any of them has been
  * read. A generator that rewrites values after reading a statistic wraps
  * the result in a fresh `Field`.
  *
  * @param data flat values, length == dims.product
  * @param dims extent of each dimension, slowest-varying first
  */
final case class Field(data: Array[Double], dims: Array[Int]) {
  require(dims.nonEmpty && dims.length <= 4, s"1-4 dims supported, got ${dims.length}")
  require(dims.forall(_ > 0), "all dims must be positive")
  require(data.length == dims.product.toInt, s"data length ${data.length} != ${dims.mkString("x")}")

  /** Number of points. */
  def size: Int = data.length

  /** Number of dimensions. */
  def ndim: Int = dims.length

  /** Row-major strides: stride(i) = product of dims after i. */
  val strides: Array[Int] = Field.strides(dims)

  /** Minimum, maximum and sum in index order: one pass, on the first read of
    * any statistic.
    */
  private lazy val moments: Field.Moments = Field.moments(data)

  /** Value range (max - min); 0 for constant fields. */
  def valueRange: Double = moments.max - moments.min

  /** Mean of the field. */
  def mean: Double = moments.sum / data.length

  /** Population variance of the field: a second pass, on its first read. */
  lazy val variance: Double = Field.squaredDeviations(data, mean) / data.length
}

object Field {
  private final case class Moments(min: Double, max: Double, sum: Double)

  // The statistics loops live in plain methods: run inside a lazy
  // initialiser, a loop was not OSR-compiled and a field's first read cost
  // 40-80 ms instead of about 1 ms.
  private def moments(data: Array[Double]): Moments = {
    var mn = Double.PositiveInfinity
    var mx = Double.NegativeInfinity
    var s = 0.0
    var i = 0
    while (i < data.length) {
      val v = data(i)
      if (v < mn) mn = v
      if (v > mx) mx = v
      s += v
      i += 1
    }
    Moments(mn, mx, s)
  }

  /** Σ(x − mu)² in index order. */
  private def squaredDeviations(data: Array[Double], mu: Double): Double = {
    var s = 0.0
    var i = 0
    while (i < data.length) { val d = data(i) - mu; s += d * d; i += 1 }
    s
  }

  /** Row-major strides of `dims`: stride(i) = product of dims after i. */
  def strides(dims: Array[Int]): Array[Int] = {
    val s = new Array[Int](dims.length)
    var acc = 1
    var i = dims.length - 1
    while (i >= 0) { s(i) = acc; acc *= dims(i); i -= 1 }
    s
  }

  /** The callback of [[foreachRow]]: a row of `count` points whose first
    * point sits at linear index `start` and at `coords`. `coords` is the
    * walk's own odometer, to be read, not written, and only during the call.
    * A lambda converts to it.
    */
  abstract class RowVisitor {
    def apply(start: Int, count: Int, coords: Array[Int]): Unit
  }

  /** Visit the rows of the strided box {lo(d) + m·step(d) < hi(d)} in
    * row-major order (last dim fastest), with linear indices under row-major
    * `strides`. A row runs along the last dim: its points lie at `start`,
    * `start + step(last)`, … An empty box (lo(d) ≥ hi(d) along some d)
    * visits nothing. This is the one row-major odometer of the program:
    * every walk over a box, a grid or a block of a field is built on it.
    */
  def foreachRow(strides: Array[Int], lo: Array[Int], hi: Array[Int], step: Array[Int])(f: RowVisitor): Unit = {
    val last = lo.length - 1
    var start = 0
    var d = 0
    while (d <= last) {
      if (lo(d) >= hi(d)) return
      start += lo(d) * strides(d)
      d += 1
    }
    val count = (hi(last) - 1 - lo(last)) / step(last) + 1
    val coords = lo.clone()
    var more = true
    while (more) {
      f(start, count, coords)
      d = last - 1
      var carry = true
      while (d >= 0 && carry) {
        coords(d) += step(d)
        start += step(d) * strides(d)
        if (coords(d) < hi(d)) carry = false
        else { start -= (coords(d) - lo(d)) * strides(d); coords(d) = lo(d); d -= 1 }
      }
      more = !carry
    }
  }
}
