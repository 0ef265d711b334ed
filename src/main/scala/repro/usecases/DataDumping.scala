package repro.usecases

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.analysis.Metrics
import repro.compressor.{Compressor, Predictor}
import repro.core.{Field, RQModel}
import repro.sparkapi.ChunkRow

/** §V-F (Figs. 13–14): per-snapshot data-dumping with parallel I/O.
  *
  * Each simulation snapshot must be stored with PSNR ≥ target. Three methods:
  *
  *  - **Traditional**: one static error bound for all snapshots, chosen
  *    offline as the worst-case bound that satisfies the target on *every*
  *    snapshot (Liebig's barrel) — zero per-snapshot optimization time, but
  *    over-conserves quality on easy snapshots (more bytes, more I/O).
  *  - **In-situ TAE**: per snapshot, compress+decompress at 5 candidate error
  *    bounds, keep the largest that meets the target — good bounds, but pays
  *    ~5 compressions of optimization time and limited eb granularity.
  *  - **Model (ours)**: per snapshot, one 1 % sampling pass + the Eq. 12
  *    inversion picks the error bound; one compression; no trials.
  *
  * I/O time is simulated as bytes ÷ bandwidth (the paper's parallel-HDF5
  * bandwidth is a property of the filesystem, not of the contribution; the
  * comparison depends only on relative byte counts), while optimization and
  * compression times are real wall-clock measurements inside executors.
  */
object DataDumping {

  /** Per-snapshot, per-method outcome. Times in seconds. */
  final case class DumpStats(
      snapshot: Int,
      method: String,
      ebUsed: Double,
      bytes: Long,
      psnr: Double,
      optTimeS: Double,
      compressTimeS: Double,
      ioTimeS: Double,
  ) {
    def totalS: Double = optTimeS + compressTimeS + ioTimeS
  }

  /** Simulated storage bandwidth per process (bytes/s). Parallel filesystems
    * shared by many writers deliver tens of MB/s per process — the paper's
    * 29.4 s uncompressed baseline for a multi-GB snapshot across 128 ranks is
    * in this regime, which is what makes I/O the dominant cost their method
    * attacks.
    */
  val BandwidthBytesPerSec: Double = 20e6

  private def now(): Long = System.nanoTime()
  private def secs(t0: Long, t1: Long): Double = (t1 - t0) / 1e9

  /** Offline worst-case error bound for the traditional method: the largest
    * value-range-relative candidate whose PSNR meets the target on every
    * snapshot, each compressed at the candidate times its own range. The
    * offline trial cost is not charged to dump time (the paper's setup) — its
    * penalty is the conservative bound itself.
    */
  def traditionalErrorBound(snapshots: Seq[Field], candidatesRel: Seq[Double], targetPsnr: Double,
                            predictor: Predictor): Double = {
    val ok = candidatesRel.sorted.reverse.find { r =>
      snapshots.forall { f =>
        val res = Compressor.compress(f, r * f.valueRange, predictor)
        Metrics.psnr(f, res.recon) >= targetPsnr
      }
    }
    ok.getOrElse(candidatesRel.min)
  }

  /** Dump one snapshot with each method and record the cost split. */
  def dumpOne(snapshot: Int, f: Field, predictor: Predictor, targetPsnr: Double,
              traditionalEb: Double, taeCandidates: Seq[Double]): Seq[DumpStats] = {
    // traditional: no optimization, compress at the static eb
    val tr = {
      val t0 = now()
      val res = Compressor.compress(f, traditionalEb, predictor)
      val t1 = now()
      DumpStats(snapshot, "traditional", traditionalEb, res.huffPlusLLBytes,
        Metrics.psnr(f, res.recon), 0.0, secs(t0, t1), res.huffPlusLLBytes / BandwidthBytesPerSec)
    }
    // TAE: trial-compress candidates (largest first), keep best that passes
    val tae = {
      val t0 = now()
      var chosen = taeCandidates.min
      var found = false
      taeCandidates.sorted.reverse.foreach { e =>
        if (!found) {
          val res = Compressor.compress(f, e, predictor)
          if (Metrics.psnr(f, res.recon) >= targetPsnr) { chosen = e; found = true }
        }
      }
      val t1 = now()
      val res = Compressor.compress(f, chosen, predictor)
      val t2 = now()
      DumpStats(snapshot, "tae", chosen, res.huffPlusLLBytes,
        Metrics.psnr(f, res.recon), secs(t0, t1), secs(t1, t2), res.huffPlusLLBytes / BandwidthBytesPerSec)
    }
    // model: sample once, invert PSNR -> eb, compress once
    val ours = {
      val t0 = now()
      val model = RQModel.build(f, predictor)
      // small safety margin on the target absorbs estimation error, like §IV-B
      val eb = model.errorBoundForPsnr(targetPsnr + 1.0)
      val t1 = now()
      val res = Compressor.compress(f, eb, predictor)
      val t2 = now()
      DumpStats(snapshot, "model", eb, res.huffPlusLLBytes,
        Metrics.psnr(f, res.recon), secs(t0, t1), secs(t1, t2), res.huffPlusLLBytes / BandwidthBytesPerSec)
    }
    Seq(tr, tae, ours)
  }

  /** Run the three methods over chunked snapshots on Spark executors: each
    * chunk row is one process's portion of one snapshot (the paper's 128
    * processes × snapshot layout; `field` holds the snapshot index, `chunkId`
    * the process portion). Returns per-(snapshot, portion, method) stats; the
    * dump time of a snapshot is the max over its portions (processes run in
    * parallel).
    */
  def runOnSpark(chunksBySnapshot: Dataset[ChunkRow], predictor: Predictor,
                 targetPsnr: Double, traditionalEbRel: Double, taeCandidatesRel: Seq[Double]): Dataset[DumpStats] = {
    val spark = chunksBySnapshot.sparkSession
    import spark.implicits._
    chunksBySnapshot.flatMap { row =>
      val f = row.toField
      val range = f.valueRange
      dumpOne(row.field.toInt, f, predictor, targetPsnr,
        traditionalEbRel * range, taeCandidatesRel.map(_ * range))
    }
  }
}
