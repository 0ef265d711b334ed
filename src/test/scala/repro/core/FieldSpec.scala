package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SciData

/** Test helpers for building fields and reading them by coordinates; the
  * program itself walks fields by linear index.
  */
object FieldSpec {
  /** A 1-D field over `data`. */
  def of1d(data: Array[Double]): Field = Field(data, Array(data.length))

  /** A field of the given dims filled via the generator f(linearIndex),
    * called in index order.
    */
  def tabulate(dims: Array[Int])(f: Int => Double): Field = Field(Array.tabulate(dims.product)(f), dims)

  implicit class FieldCoords(private val f: Field) extends AnyVal {
    /** Linear index of the given coordinates. */
    def index(coords: Array[Int]): Int = {
      var idx = 0
      var i = 0
      while (i < coords.length) { idx += coords(i) * f.strides(i); i += 1 }
      idx
    }

    /** Coordinates of the given linear index. */
    def coords(idx: Int): Array[Int] = {
      val c = new Array[Int](f.ndim)
      var rem = idx
      var i = 0
      while (i < f.ndim) { c(i) = rem / f.strides(i); rem %= f.strides(i); i += 1 }
      c
    }

    /** Value at coordinates. */
    def apply(coords: Array[Int]): Double = f.data(index(coords))

    /** Minimum and maximum value. */
    def minMax: (Double, Double) = {
      var mn = Double.PositiveInfinity
      var mx = Double.NegativeInfinity
      f.data.foreach { v => if (v < mn) mn = v; if (v > mx) mx = v }
      (mn, mx)
    }
  }
}

class FieldSpec extends AnyFunSuite {
  import FieldSpec.{FieldCoords, of1d, tabulate}

  test("1-D strides and indexing") {
    val f = of1d(Array(1.0, 2.0, 3.0))
    assert(f.strides.toSeq == Seq(1))
    assert(f.index(Array(2)) == 2)
    assert(f(Array(1)) == 2.0)
  }

  test("2-D strides are row-major") {
    val f = Field(new Array[Double](6), Array(2, 3))
    assert(f.strides.toSeq == Seq(3, 1))
    assert(f.index(Array(1, 2)) == 5)
  }

  test("3-D strides are row-major") {
    val f = Field(new Array[Double](24), Array(2, 3, 4))
    assert(f.strides.toSeq == Seq(12, 4, 1))
    assert(f.index(Array(1, 2, 3)) == 23)
  }

  test("4-D strides are row-major") {
    val f = Field(new Array[Double](120), Array(2, 3, 4, 5))
    assert(f.strides.toSeq == Seq(60, 20, 5, 1))
  }

  test("coords inverts index for every point of a 3-D field") {
    val f = Field(new Array[Double](60), Array(3, 4, 5))
    (0 until 60).foreach { i =>
      assert(f.index(f.coords(i)) == i)
    }
  }

  test("coords inverts index for every point of a 4-D field") {
    val f = Field(new Array[Double](72), Array(2, 3, 3, 4))
    (0 until 72).foreach(i => assert(f.index(f.coords(i)) == i))
  }

  test("minMax and valueRange") {
    val f = of1d(Array(3.0, -1.0, 7.0, 2.0))
    assert(f.minMax == ((-1.0, 7.0)))
    assert(f.valueRange == 8.0)
  }

  test("constant field has zero range and variance") {
    val f = of1d(Array.fill(10)(4.2))
    assert(f.valueRange == 0.0)
    assert(math.abs(f.variance) < 1e-24)
  }

  test("mean and variance") {
    val f = of1d(Array(1.0, 2.0, 3.0, 4.0))
    assert(f.mean == 2.5)
    assert(math.abs(f.variance - 1.25) < 1e-12)
  }

  test("memoized statistics equal a fresh field's, bit for bit, for every registry field") {
    def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)
    for (spec <- SciData.fields) {
      val f = spec.generate(test = true)
      val fresh = Field(f.data.clone, f.dims)
      assert(bits(f.valueRange) == bits(fresh.valueRange), s"${spec.id} valueRange")
      assert(bits(f.mean) == bits(fresh.mean), s"${spec.id} mean")
      assert(bits(f.variance) == bits(fresh.variance), s"${spec.id} variance")
    }
  }

  test("tabulate fills by linear index") {
    val f = tabulate(Array(2, 3))(i => i.toDouble)
    assert(f.data.toSeq == (0 until 6).map(_.toDouble))
  }

  test("rejects bad shapes") {
    intercept[IllegalArgumentException](Field(new Array[Double](5), Array(2, 3)))
    intercept[IllegalArgumentException](Field(new Array[Double](0), Array.empty[Int]))
    intercept[IllegalArgumentException](Field(new Array[Double](1), Array(1, 1, 1, 1, 1)))
    intercept[IllegalArgumentException](Field(new Array[Double](0), Array(0)))
  }

  test("size matches dims product") {
    assert(Field(new Array[Double](24), Array(2, 3, 4)).size == 24)
  }
}
