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
}
