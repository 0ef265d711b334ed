package repro.sparkapi

import repro.SparkSpec
import repro.core.Field
import repro.core.FieldSpec.tabulate
import repro.data.SciData

class ChunksSpec extends SparkSpec {

  private def ramp(dims: Array[Int]): Field = tabulate(dims)(_.toDouble)

  /** Reassembles slabs split by `Chunks.split`: its inverse. */
  private def join(chunks: Seq[Field]): Field = {
    val dims = chunks.head.dims.clone()
    dims(0) = chunks.map(_.dims(0)).sum
    Field(chunks.flatMap(_.data).toArray, dims)
  }

  test("split/join roundtrip 3-D") {
    val f = ramp(Array(17, 5, 4))
    val parts = Chunks.split(f, 4)
    assert(parts.length == 4)
    assert(parts.map(_.size).sum == f.size)
    assert(join(parts).data.toSeq == f.data.toSeq)
  }

  test("split/join roundtrip 1-D") {
    val f = ramp(Array(1000))
    val parts = Chunks.split(f, 7)
    assert(join(parts).data.toSeq == f.data.toSeq)
  }

  test("split caps chunk count at dim 0") {
    val f = ramp(Array(3, 10))
    assert(Chunks.split(f, 8).length == 3)
  }

  test("split yields contiguous slabs with correct dims") {
    val f = ramp(Array(10, 6))
    val parts = Chunks.split(f, 3)
    parts.foreach(p => assert(p.dims(1) == 6))
    assert(parts.map(_.dims(0)).sum == 10)
  }

  test("chunkDS produces one row per chunk with field metadata") {
    val spec = SciData.fields.find(_.dataset == "CESM").get
    val ds = Chunks.chunkAll(spark, Seq(spec), 4, test = true)
    val rows = ds.collect()
    assert(rows.length == 4)
    assert(rows.forall(_.dataset == "CESM"))
    assert(rows.map(_.chunkId).sorted.toSeq == Seq(0, 1, 2, 3))
    val total = rows.map(_.values.length).sum
    assert(total == spec.generate(test = true).size)
  }

  test("chunkAll covers every field in the registry") {
    val specs = SciData.fields.take(3)
    val ds = Chunks.chunkAll(spark, specs, 2, test = true)
    val rows = ds.collect()
    assert(rows.map(r => (r.dataset, r.field)).distinct.length == 3)
  }

  test("chunk rows rebuild into valid fields") {
    val spec = SciData.fields.find(_.dataset == "Hurricane").get
    val rows = Chunks.chunkAll(spark, Seq(spec), 3, test = true).collect()
    rows.foreach { r =>
      val f = r.toField
      assert(f.size == r.values.length)
      assert(f.dims.toSeq == r.dims.toSeq)
    }
  }
}
