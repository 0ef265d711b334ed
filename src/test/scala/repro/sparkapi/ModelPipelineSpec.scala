package repro.sparkapi

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.analysis.Metrics
import repro.compressor.{Compressor, LorenzoPredictor}
import repro.core.QualityModel
import repro.data.SciData

class ModelPipelineSpec extends SparkSpec {

  private lazy val chunks = Chunks.chunkAll(spark, Seq(
    SciData.byId("CESM", "TS"),
    SciData.byId("RTM", "2000"),
  ), nChunks = 3, test = true)

  private lazy val stats = ModelPipeline.modelAndMeasure(
    chunks, Seq(1e-3, 1e-2), LorenzoPredictor).cache()

  test("one stats row per (chunk, eb)") {
    assert(stats.count() == 2 * 3 * 2)
  }

  /** Eq. 12 over a row's measured mean squared error. */
  private def measPsnr(s: ChunkRQStats): Double = QualityModel.psnr(s.range, s.measSumSqErr / s.n)

  test("per-chunk stats carry consistent measurements") {
    stats.collect().foreach { s =>
      assert(s.measHuffBitRate > 0 && s.measHuffBitRate <= 64)
      assert(s.estHuffBitRate > 0)
      assert(measPsnr(s) > 0)
      assert(s.measSsim <= 1.0 + 1e-9)
      assert(s.measTotalBytes > 0)
      assert(s.n > 0)
    }
  }

  test("model estimates track per-chunk measurements inside executors") {
    stats.collect().foreach { s =>
      val ratio = s.estHuffBitRate / s.measHuffBitRate
      assert(ratio > 0.6 && ratio < 1.6, s"${s.dataset}/${s.field} chunk ${s.chunkId} ebRel=${s.ebRel}: $ratio")
      val estPsnr = QualityModel.psnr(s.range, s.estErrVariance)
      assert(math.abs(estPsnr - measPsnr(s)) < 10.0,
        s"${s.dataset}/${s.field} chunk ${s.chunkId} ebRel=${s.ebRel}: est=$estPsnr meas=${measPsnr(s)}")
    }
  }

  test("aggregateByField: weighted aggregation matches DuckDB (oracle)") {
    // group key as an integer label so Spark and DuckDB stringify identically
    val df = stats.toDF
      .select(col("dataset"), col("field"),
        (col("ebRel") * 1e6).cast("long").as("ebKey"),
        col("n").cast("double").as("n"),
        col("measHuffBitRate"), col("measSumSqErr"))
    val agg = df.groupBy("dataset", "field", "ebKey").agg(
      (sum(col("n") * col("measHuffBitRate")) / sum(col("n"))).as("wavg_bitrate"),
      (sum(col("measSumSqErr")) / sum(col("n"))).as("mse"),
    )
    Oracle.assertEquivalent(
      agg,
      """SELECT dataset, field, ebKey,
        |       SUM(CAST(n AS DOUBLE) * CAST(measHuffBitRate AS DOUBLE)) / SUM(CAST(n AS DOUBLE)) AS wavg_bitrate,
        |       SUM(CAST(measSumSqErr AS DOUBLE)) / SUM(CAST(n AS DOUBLE)) AS mse
        |FROM stats GROUP BY dataset, field, ebKey""".stripMargin,
      "stats" -> df,
    )
  }

  test("aggregateByField output has one row per (field, eb) with sane values") {
    val agg = ModelPipeline.aggregateByField(stats).collect()
    assert(agg.length == 2 * 2)
    agg.foreach { r =>
      assert(r.getAs[Double]("measHuffBitRate") > 0)
      assert(r.getAs[Double]("measMse") >= 0)
      assert(r.getAs[Long]("n") > 0)
    }
  }

  test("aggregated (pooled) MSE is between chunk-level MSE extremes") {
    val rows = stats.collect().filter(s => s.dataset == "CESM" && s.ebRel == 1e-2)
    val agg = ModelPipeline.aggregateByField(stats).collect()
      .find(r => r.getAs[String]("dataset") == "CESM" && r.getAs[Double]("ebRel") == 1e-2).get
    val pooled = agg.getAs[Double]("measMse")
    val chunkMses = rows.map(s => s.measSumSqErr / s.n)
    assert(pooled <= chunkMses.max + 1e-12)
    assert(pooled >= chunkMses.min - 1e-12)
  }

  test("measPsnr equals Metrics.psnr of the chunk's reconstruction bit for bit") {
    // the Table II job takes the measured PSNR this way from the aggregated
    // squared-error sum; over one chunk it must equal the direct measurement
    val fields = chunks.collect().map(r => (r.dataset, r.field, r.chunkId) -> r.toField).toMap
    stats.collect().foreach { s =>
      val f = fields((s.dataset, s.field, s.chunkId))
      val recon = Compressor.compress(f, s.ebAbs, LorenzoPredictor).recon
      assert(java.lang.Double.doubleToRawLongBits(measPsnr(s)) ==
        java.lang.Double.doubleToRawLongBits(Metrics.psnr(f, recon)),
        s"${s.dataset}/${s.field} chunk ${s.chunkId} ebRel=${s.ebRel}")
    }
  }

  test("sampling-error columns populated by the full scan") {
    stats.collect().foreach { s =>
      assert(!s.fullErrStd.isNaN)
      assert(s.sampledErrStd > 0)
    }
  }
}
