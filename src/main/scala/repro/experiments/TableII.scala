package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.compressor.{LorenzoPredictor, Predictor}
import repro.core.{QualityModel, RQModel}
import repro.data.SciData
import repro.sparkapi.{Chunks, ModelPipeline}

/** Table II harness: model-accuracy columns per field, computed by running
  * the ratio-quality model *and* the real compressor over every chunk of
  * every synthetic Table-I field on Spark executors, aggregating per field,
  * then applying the paper's Eq. 20 accuracy metric across the error-bound
  * sweep.
  */
object TableII {

  /** The error-bound sweep (value-range-relative, SZ REL mode). Spans the
    * low-eb (pure entropy) through high-eb (RLE/correction) regimes.
    */
  val EbSweep: Seq[Double] = Seq(1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2)

  /** One Table II row. Error columns are fractions (×100 = the paper's %). */
  final case class Row(
      dataset: String,
      field: String,
      dims: String,
      sampleErr: Double,
      huffErr: Double,
      losslessErr: Double,
      huffLLErr: Double,
      psnrErr: Double,
      ssimErr: Option[Double],
  )

  final case class Result(rows: Seq[Row]) {
    private def avg(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
    def avgSampleErr: Double = avg(rows.map(_.sampleErr))
    def avgHuffErr: Double = avg(rows.map(_.huffErr))
    def avgLosslessErr: Double = avg(rows.map(_.losslessErr))
    def avgHuffLLErr: Double = avg(rows.map(_.huffLLErr))
    def avgPsnrErr: Double = avg(rows.map(_.psnrErr))
    def avgSsimErr: Double = avg(rows.flatMap(_.ssimErr))

    def render: String = {
      val sb = new StringBuilder
      sb.append(f"${"Name"}%-10s ${"Field"}%-20s ${"Dims"}%-14s ${"SampleE"}%8s ${"HuffE"}%8s ${"LLE"}%8s ${"H+LLE"}%8s ${"PSNRE"}%8s ${"SSIME"}%8s\n")
      rows.foreach { r =>
        val ssim = r.ssimErr.map(v => f"${v * 100}%7.2f%%").getOrElse("      - ")
        sb.append(f"${r.dataset}%-10s ${r.field}%-20s ${r.dims}%-14s ${r.sampleErr * 100}%7.2f%% ${r.huffErr * 100}%7.2f%% ${r.losslessErr * 100}%7.2f%% ${r.huffLLErr * 100}%7.2f%% ${r.psnrErr * 100}%7.2f%% $ssim\n")
      }
      sb.append(f"${"Average"}%-10s ${""}%-20s ${""}%-14s ${avgSampleErr * 100}%7.2f%% ${avgHuffErr * 100}%7.2f%% ${avgLosslessErr * 100}%7.2f%% ${avgHuffLLErr * 100}%7.2f%% ${avgPsnrErr * 100}%7.2f%% ${avgSsimErr * 100}%7.2f%%\n")
      sb.toString
    }
  }

  /** Fields with no SSIM column in the paper's Table II (1-D data and the
    * sparse EXAFEL detector stack).
    */
  def hasSsim(dataset: String): Boolean =
    dataset != "HACC" && dataset != "Brown" && dataset != "EXAFEL"

  def run(spark: SparkSession,
          predictor: Predictor = LorenzoPredictor,
          test: Boolean = false,
          nChunks: Int = 4,
          ebRels: Seq[Double] = EbSweep,
          sampleRate: Double = 0.01): Result = {
    val chunks = Chunks.chunkAll(spark, SciData.fields, nChunks, test)
    val stats = ModelPipeline.modelAndMeasure(chunks, ebRels, predictor, sampleRate)
    val agg = ModelPipeline.aggregateByField(stats).collect()

    val byField = agg.groupBy(r => (r.getAs[String]("dataset"), r.getAs[String]("field")))
    val rows = SciData.fields.map { spec =>
      val rs = byField((spec.dataset, spec.fieldName)).sortBy(_.getAs[Double]("ebRel"))
      def col(c: String): Seq[Double] = rs.map(_.getAs[Double](c)).toSeq
      val range = rs.head.getAs[Double]("range")
      val sampleErr = math.abs(col("sampledErrStd").head - col("fullErrStd").head) / range
      val huffErr = RQModel.accuracyError(col("measHuffBitRate"), col("estHuffBitRate"))
      // lossless-stage gain, with bit-rates floored (degenerate ~0-bit regime)
      def gain(huff: String, ll: String): Seq[Double] =
        col(huff).zip(col(ll)).map { case (h, l) => h / math.max(l, RQModel.BitRateFloor) }
      val llErr = RQModel.accuracyError(gain("measHuffBitRate", "measLLBitRate"), gain("estHuffBitRate", "estLLBitRate"))
      val huffLLErr = RQModel.accuracyErrorFloored(col("measLLBitRate"), col("estLLBitRate"))
      // a chunk's range does not depend on the error bound, so every row's range is `range`
      val measPsnr = col("measMse").map(QualityModel.psnr(range, _))
      val estPsnr = col("estErrVariance").map(v => QualityModel.psnr(range, math.max(v, 1e-300)))
      val psnrErr = RQModel.accuracyError(measPsnr, estPsnr)
      val ssimErr =
        if (hasSsim(spec.dataset)) Some(RQModel.accuracyError(col("measSsim"), col("estSsim")))
        else None
      Row(spec.dataset, spec.fieldName,
        (if (test) spec.testDims else spec.benchDims).mkString("x"),
        sampleErr, huffErr, llErr, huffLLErr, psnrErr, ssimErr)
    }
    Result(rows)
  }
}
