package repro.sparkapi

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.analysis.Metrics
import repro.compressor.{Compressor, Predictor}
import repro.core.{PredictionErrorSample, RQModel, Sampler}

/** Per-chunk ratio-quality stats: the model's estimates next to the measured
  * values from actually running the compressor on the same chunk. One row per
  * (chunk, error bound). Produced inside executors via mapPartitions — the
  * paper's per-rank in-situ modeling.
  *
  * Measured/estimated pairs carry everything Table II grades: Huffman
  * bit-rate, Huffman+lossless bit-rate (Table II's lossless-stage gain is
  * their ratio), error variance vs squared-error sum (PSNR, Eq. 12, is taken
  * after aggregation), SSIM, plus the sampling-accuracy inputs (sampled vs
  * full prediction-error std-dev).
  */
final case class ChunkRQStats(
    dataset: String,
    field: String,
    chunkId: Int,
    n: Long,
    ebRel: Double,
    ebAbs: Double,
    range: Double,
    // model estimates
    estHuffBitRate: Double,
    estLLBitRate: Double,
    estErrVariance: Double,
    estSsim: Double,
    // measured by the real compressor
    measHuffBitRate: Double,
    measLLBitRate: Double,
    measSumSqErr: Double,
    measSsim: Double,
    measTotalBytes: Long,
    // sampling accuracy (Fig. 4 / Table II col 1)
    sampledErrStd: Double,
    fullErrStd: Double,
)

object ModelPipeline {

  /** Run the model and the real compressor on every chunk × error bound.
    * Error bounds are value-range-relative (`ebRels`), converted to absolute
    * per chunk — SZ's value-range-relative mode.
    */
  def modelAndMeasure(
      chunks: Dataset[ChunkRow],
      ebRels: Seq[Double],
      predictor: Predictor,
      sampleRate: Double = Sampler.DefaultRate,
  ): Dataset[ChunkRQStats] = {
    val spark = chunks.sparkSession
    import spark.implicits._
    chunks.mapPartitions { it =>
      it.flatMap { row =>
        val f = row.toField
        val range = f.valueRange
        val model = RQModel.build(f, predictor, sampleRate, seed = 42L + row.chunkId)
        val fullStd = PredictionErrorSample.std(Sampler.fullErrors(f, predictor))
        ebRels.map { ebRel =>
          val ebAbs = math.max(ebRel * range, 1e-300)
          val est = model.estimate(ebAbs)
          val res = Compressor.compress(f, ebAbs, predictor)
          val sumSq = Metrics.sumSqError(f, res.recon)
          ChunkRQStats(
            dataset = row.dataset, field = row.field, chunkId = row.chunkId,
            n = f.size.toLong, ebRel = ebRel, ebAbs = ebAbs, range = range,
            estHuffBitRate = est.huffBitRate,
            estLLBitRate = est.llBitRate,
            estErrVariance = est.errVariance,
            estSsim = est.ssim,
            measHuffBitRate = res.huffBitRate,
            measLLBitRate = res.huffLLBitRate,
            measSumSqErr = sumSq,
            measSsim = Metrics.ssimGlobal(f, res.recon),
            measTotalBytes = res.huffPlusLLBytes,
            sampledErrStd = model.sample.errorStd,
            fullErrStd = fullStd,
          )
        }
      }
    }
  }

  /** Field-level aggregation of per-chunk stats, expressed in Spark SQL so it
    * can be oracle-checked against DuckDB: point-weighted bit-rates, global
    * MSE → PSNR, weighted SSIM, weighted sampling error.
    */
  def aggregateByField(stats: Dataset[ChunkRQStats]): DataFrame = {
    def wavg(c: String) = (sum(col("n") * col(c)) / sum(col("n"))).as(c)
    stats.toDF().groupBy("dataset", "field", "ebRel").agg(
      wavg("estHuffBitRate"),
      wavg("measHuffBitRate"),
      wavg("estLLBitRate"),
      wavg("measLLBitRate"),
      wavg("estErrVariance"),
      (sum(col("measSumSqErr")) / sum(col("n"))).as("measMse"),
      max(col("range")).as("range"),
      wavg("estSsim"),
      wavg("measSsim"),
      wavg("sampledErrStd"),
      wavg("fullErrStd"),
      sum(col("measTotalBytes")).as("measTotalBytes"),
      sum(col("n")).as("n"),
    )
  }
}
