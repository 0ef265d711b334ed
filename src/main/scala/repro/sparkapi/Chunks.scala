package repro.sparkapi

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Field
import repro.data.SciField

/** One data chunk as carried through Spark: a contiguous slab of a scientific
  * field (split along the slowest dimension), itself a valid [[Field]].
  * Mirrors the paper's "data on multiple ranks" partitioning (§IV-C): each
  * executor task models/compresses its chunks independently — no shuffle of
  * raw data, matching the paper's no-inter-node-communication workflow.
  */
final case class ChunkRow(
    dataset: String,
    field: String,
    chunkId: Int,
    dims: Array[Int],
    values: Array[Double],
) {
  def toField: Field = Field(values, dims)
}

object Chunks {

  /** Split a field into up to `nChunks` slabs along dim 0 (each slab keeps
    * the full extent of the other dims). Fields shorter than `nChunks` along
    * dim 0 yield fewer chunks.
    */
  def split(field: Field, nChunks: Int): Seq[Field] = {
    val d0 = field.dims(0)
    val k = math.max(1, math.min(nChunks, d0))
    val slabSize = field.size / d0 // points per unit of dim 0
    val cuts = (0 to k).map(i => (i.toLong * d0 / k).toInt)
    (0 until k).map { i =>
      val lo = cuts(i); val hi = cuts(i + 1)
      val dims = field.dims.clone(); dims(0) = hi - lo
      val data = java.util.Arrays.copyOfRange(field.data, lo * slabSize, hi * slabSize)
      Field(data, dims)
    }
  }

  /** DataFrame of chunk rows for many fields at once. */
  def chunkAll(spark: SparkSession, specs: Seq[SciField], nChunks: Int, test: Boolean = false): Dataset[ChunkRow] = {
    import spark.implicits._
    val rows = specs.flatMap { spec =>
      val f = spec.generate(test)
      split(f, nChunks).zipWithIndex.map { case (c, i) =>
        ChunkRow(spec.dataset, spec.fieldName, i, c.dims, c.data)
      }
    }
    spark.createDataset(rows).repartition(spark.sparkContext.defaultParallelism)
  }
}
