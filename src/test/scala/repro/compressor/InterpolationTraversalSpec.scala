package repro.compressor

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Field
import scala.collection.mutable.ArrayBuffer

/** Pins the line-wise interpolation traversal against the per-point
  * traversal it replaced: the same `(idx, isAnchor, p1, p2)` visits in the
  * same order.
  */
object InterpolationTraversalSpec {

  /** The line traversal expanded to one `(idx, isAnchor, p1, p2)` per point:
    * the left and right neighbours, -1 where there is none (both for an
    * anchor, the right one at the right boundary).
    */
  def points(dims: Array[Int]): Seq[(Int, Boolean, Int, Int)] = {
    val out = ArrayBuffer.empty[(Int, Boolean, Int, Int)]
    InterpolationPredictor.traverse(dims) { (first, step, count, back, right) =>
      var k = 0
      while (k < count) {
        val idx = first + k * step
        if (back == 0) out += ((idx, true, -1, -1))
        else out += ((idx, false, idx - back, if (k < right) idx + back else -1))
        k += 1
      }
    }
    out.toSeq
  }

  /** The per-point traversal, kept as the reference definition: anchors
    * first, then per level (stride s = 64, 32, …, 2) and per dimension d the
    * midpoints of the grid (≡ 0 mod s/2 before d, ≡ s/2 mod s at d, ≡ 0 mod s
    * after d), row-major, with the neighbours along d.
    */
  def referenceTraverse(dims: Array[Int]): Seq[(Int, Boolean, Int, Int)] = {
    val ndim = dims.length
    val strides = Field.strides(dims)
    val out = ArrayBuffer.empty[(Int, Boolean, Int, Int)]
    def linIndex(coords: Array[Int]): Int = coords.indices.map(i => coords(i) * strides(i)).sum
    def foreachGrid(steps: Array[Int], offs: Array[Int])(f: Array[Int] => Unit): Unit = {
      val coords = offs.clone()
      if (coords.indices.exists(d => coords(d) >= dims(d))) return
      var done = false
      while (!done) {
        f(coords)
        var i = ndim - 1
        var carry = true
        while (i >= 0 && carry) {
          coords(i) += steps(i)
          if (coords(i) >= dims(i)) { coords(i) = offs(i); i -= 1 } else carry = false
        }
        if (carry) done = true
      }
    }
    val max = InterpolationPredictor.MaxStride
    foreachGrid(Array.fill(ndim)(max), Array.fill(ndim)(0)) { c => out += ((linIndex(c), true, -1, -1)) }
    var s = max
    while (s >= 2) {
      val h = s / 2
      for (d <- 0 until ndim) {
        val steps = Array.tabulate(ndim)(j => if (j < d) h else s)
        val offs = Array.tabulate(ndim)(j => if (j == d) h else 0)
        foreachGrid(steps, offs) { c =>
          val idx = linIndex(c)
          val right = if (c(d) + h < dims(d)) idx + h * strides(d) else -1
          out += ((idx, false, idx - h * strides(d), right))
        }
      }
      s = h
    }
    out.toSeq
  }
}

class InterpolationTraversalSpec extends AnyFunSuite {
  import InterpolationTraversalSpec._

  private val shapes: Seq[Array[Int]] = Seq(
    Array(1), Array(7), Array(63), Array(64), Array(65), Array(129),
    Array(1, 5), Array(5, 1, 3), Array(130, 3), Array(2, 1, 1, 4),
    Array(1, 1, 1, 1), Array(3, 4, 5, 6), Array(65, 65, 2),
  )

  for (dims <- shapes) {
    test(s"line traversal visits as the per-point reference on ${dims.mkString("x")}") {
      val expected = referenceTraverse(dims)
      val actual = points(dims)
      assert(expected.length == dims.product)
      assert(actual.length == expected.length)
      val firstDiff = actual.zip(expected).indexWhere { case (a, e) => a != e }
      assert(firstDiff < 0, s"visit $firstDiff: line ${actual(math.max(firstDiff, 0))}, reference ${expected(math.max(firstDiff, 0))}")
    }
  }
}
