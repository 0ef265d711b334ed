package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

/** Pins [[Field.foreachRow]], the one row-major odometer, against a naive
  * per-point nested loop over the strided box: the same points, in the same
  * order, at the same linear indices and coordinates.
  */
class FieldWalkSpec extends AnyFunSuite {

  /** The per-point walk, kept as the reference definition: one loop per dim,
    * slowest first, over lo(d), lo(d) + step(d), … below hi(d); each point as
    * (linear index, coordinates).
    */
  private def reference(dims: Array[Int], lo: Array[Int], hi: Array[Int], step: Array[Int]): Seq[(Int, Seq[Int])] = {
    val strides = Field.strides(dims)
    def loop(d: Int, coords: Vector[Int]): Seq[(Int, Seq[Int])] =
      if (d == dims.length) Seq((coords.indices.map(i => coords(i) * strides(i)).sum, coords))
      else (lo(d) until hi(d) by step(d)).flatMap(c => loop(d + 1, coords :+ c))
    loop(0, Vector.empty)
  }

  /** The walk's rows expanded to their points: point k of a row lies at
    * `start + k·step(last)`, at the row's coordinates moved k steps along
    * the last dim. Every row starts at lo(last) along the last dim.
    */
  private def walked(dims: Array[Int], lo: Array[Int], hi: Array[Int], step: Array[Int]): Seq[(Int, Seq[Int])] = {
    val last = dims.length - 1
    val out = Seq.newBuilder[(Int, Seq[Int])]
    Field.foreachRow(Field.strides(dims), lo, hi, step) { (start, count, coords) =>
      assert(coords(last) == lo(last))
      for (k <- 0 until count)
        out += ((start + k * step(last), coords.toSeq.updated(last, coords(last) + k * step(last))))
    }
    out.result()
  }

  private def sameWalk(dims: Array[Int], lo: Array[Int], hi: Array[Int], step: Array[Int]): Boolean =
    walked(dims, lo, hi, step) == reference(dims, lo, hi, step)

  test("property: the walk visits a strided box as the per-point nested loop") {
    val boxes = for {
      ndim <- Gen.choose(1, 4)
      dims <- Gen.listOfN(ndim, Gen.frequency(1 -> Gen.const(1), 3 -> Gen.choose(2, 9)))
      lo <- Gen.sequence[List[Int], Int](dims.map(d => Gen.choose(0, d)))
      hi <- Gen.sequence[List[Int], Int](dims.zip(lo).map { case (d, l) => Gen.choose(l, d) })
      step <- Gen.listOfN(ndim, Gen.choose(1, 11))
    } yield (dims.toArray, lo.toArray, hi.toArray, step.toArray)
    val prop = Prop.forAll(boxes) { case (dims, lo, hi, step) => sameWalk(dims, lo, hi, step) }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(20L), prop)
    assert(result.passed, result.status.toString)
  }

  test("empty boxes, extent-1 dims and steps longer than the extent") {
    val cases = Seq(
      (Array(4, 5), Array(2, 0), Array(2, 5), Array(1, 1)), // empty along an outer dim
      (Array(4, 5), Array(0, 3), Array(4, 3), Array(1, 1)), // empty along the last dim
      (Array(1, 1, 1, 1), Array(0, 0, 0, 0), Array(1, 1, 1, 1), Array(1, 1, 1, 1)),
      (Array(3, 1, 7), Array(1, 0, 2), Array(3, 1, 7), Array(5, 2, 9)),
      (Array(9, 9), Array(0, 0), Array(9, 9), Array(64, 64)),
      (Array(6, 7, 8), Array(1, 2, 3), Array(5, 7, 8), Array(2, 3, 2)),
    )
    for ((dims, lo, hi, step) <- cases) assert(sameWalk(dims, lo, hi, step), dims.mkString("x"))
    assert(walked(Array(4, 5), Array(2, 0), Array(2, 5), Array(1, 1)).isEmpty)
  }
}
