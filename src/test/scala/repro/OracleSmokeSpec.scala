package repro

import org.apache.spark.sql.functions._
import repro.compressor.LorenzoPredictor
import repro.data.SciData
import repro.sparkapi.{Chunks, ModelPipeline}

/** The DuckDB oracle against `ModelPipeline.aggregateByField` over real
  * per-chunk stats: it passes on the same aggregation written in SQL and
  * catches a result that differs from it.
  */
class OracleSmokeSpec extends SparkSpec {

  private lazy val stats = ModelPipeline.modelAndMeasure(
    Chunks.chunkAll(spark, Seq(SciData.byId("CESM", "TS"), SciData.byId("Miranda", "vx")), nChunks = 3, test = true),
    Seq(1e-3, 1e-2), LorenzoPredictor).cache()

  /** `aggregateByField` in DuckDB's SQL, over the per-chunk table `stats`. */
  private val aggregateSql = {
    val weighted = Seq("estHuffBitRate", "measHuffBitRate", "estLLBitRate", "measLLBitRate",
      "estErrVariance", "estSsim", "measSsim", "sampledErrStd", "fullErrStd")
      .map(c => s"SUM(CAST(n AS DOUBLE) * CAST($c AS DOUBLE)) / SUM(CAST(n AS DOUBLE)) AS $c")
    s"""SELECT dataset, field, CAST(ebRel AS DOUBLE) AS ebRel, ${weighted.mkString(", ")},
       |       SUM(CAST(measSumSqErr AS DOUBLE)) / SUM(CAST(n AS DOUBLE)) AS measMse,
       |       MAX(CAST(range AS DOUBLE)) AS range,
       |       CAST(SUM(CAST(measTotalBytes AS BIGINT)) AS BIGINT) AS measTotalBytes,
       |       CAST(SUM(CAST(n AS BIGINT)) AS BIGINT) AS n
       |FROM stats GROUP BY dataset, field, ebRel""".stripMargin
  }

  test("aggregateByField matches DuckDB") {
    val agg = ModelPipeline.aggregateByField(stats)
    assert(agg.count() == 2 * 2)
    Oracle.assertEquivalent(agg, aggregateSql, "stats" -> stats.toDF())
  }

  test("oracle rejects a wrong result") {
    val wrong = ModelPipeline.aggregateByField(stats).withColumn("n", col("n") + 1)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, aggregateSql, "stats" -> stats.toDF())
    }
  }
}
