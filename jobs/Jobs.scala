package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments._

/** Shared session builder for spark-submit entrypoints. */
object JobSession {
  def make(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Prints the Table I dataset registry. */
object TableIJob {
  def main(args: Array[String]): Unit =
    println(TableI.render(test = args.contains("--test")))
}

/** Reproduces Table II (model accuracy per field). */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("table-ii")
    try println(TableII.run(spark, test = args.contains("--test")).render)
    finally spark.stop()
  }
}

/** Fig. 9: modeling vs trial-and-error overhead. */
object PerfOverheadJob {
  def main(args: Array[String]): Unit = {
    val r = PerfOverhead.run(test = args.contains("--test"))
    println(f"model: ${r.modelSecs}%.4fs  trial-and-error: ${r.taeSecs}%.4fs  speedup: ${r.speedup}%.1f×")
  }
}

/** Fig. 10: predictor selection crossover. */
object PredictorSelectionJob {
  def main(args: Array[String]): Unit = {
    val r = PredictorSelectionExp.run(test = args.contains("--test"))
    println(s"estimated crossover bits: ${r.estCrossoverBits}")
    println(s"measured crossover interval: ${r.measCrossoverInterval}")
    println(f"PSNR curve error (Eq. 20): ${r.curveErrPsnr * 100}%.2f%%")
  }
}

/** Fig. 11: memory-footprint control. */
object MemoryControlJob {
  def main(args: Array[String]): Unit = {
    val r = MemoryControl.run(test = args.contains("--test"))
    println(s"used fractions: ${r.usedFractions.map(f => f"$f%.3f").mkString(", ")}")
    println(f"first-round overflow rate: ${r.overflowRate * 100}%.1f%%  all fit after retry: ${r.allFitAfterRetry}")
  }
}

/** Figs. 12–13: in-situ per-timestep error-bound optimization. */
object InSituJob {
  def main(args: Array[String]): Unit = {
    val r = InSituExp.run(test = args.contains("--test"))
    println(f"uniform bytes: ${r.uniformBytes}, optimized bytes: ${r.optimizedBytes}, extra ratio: ${r.extraRatio * 100}%.1f%%")
    println(s"per-timestep ebs: ${r.ebs.map(e => f"$e%.3g").mkString(", ")}")
  }
}

/** Fig. 14: overall data-dumping performance on Spark executors. */
object DataDumpingJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("data-dumping")
    try println(DataDumpingExp.run(spark, test = args.contains("--test")).render)
    finally spark.stop()
  }
}
