package repro.perf

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Deterministic rate-distortion summary of every compression a run made:
  * the guard that stops a speed-up from trading away ratio or quality.
  */
final case class Quality(ratioGeomean: Double, psnrDbMean: Double)

/** One workload: a fixed job the harness runs pass after pass (closed loop,
  * one pass at a time, nothing arriving at a rate).
  */
trait Workload {
  /** Generates the inputs from the run's seed and warms the JIT on small
    * inputs. Called several times; the state of the last call is used.
    */
  def setup(run: Run): Unit

  /** Releases what the previous [[setup]] made, before the next one. */
  def teardown(): Unit = ()

  /** One pass of the fixed job. */
  def pass(run: Run): Unit

  /** Traced runs only: after each traced pass, calls the public stages that
    * the pass reached only through a composite call, one span each.
    */
  def replay(run: Run): Unit = ()

  /** Checks that span passes (determinism, verification, gates). */
  def finish(run: Run): Quality

  def provenance: Seq[(String, Any)] = Seq("spark_master" -> "none", "spark_default_parallelism" -> 0)
}

/** What a run measured, filled in by the harness and the workload. */
final class Run(val seed: Long, val tracer: Tracer) {
  var attempted = 0L
  var failed = 0L
  val failures = ArrayBuffer.empty[String]
  /** Latency of each operation of the untraced passes, ms. */
  val opMs = ArrayBuffer.empty[Double]
  /** Figures reported next to the metrics: name -> (value, unit). */
  val report = mutable.LinkedHashMap.empty[String, (Double, String)]
  /** Per-layer figures the workload computes itself (the rest come from spans). */
  val layer = mutable.Map.empty[String, Double]
  /** Time spent generating inputs so far, ns. */
  var generateNs = 0L
  /** Index of the current pass, and whether it records spans. */
  var pass = 0
  var traced = false

  /** One checked operation: counts into `attempted`, and into `failed` when
    * the body returns false or throws.
    */
  def op(what: => String)(body: => Boolean): Unit = {
    attempted += 1
    val ok =
      try body
      catch { case NonFatal(e) => note(s"$what: ${e.getClass.getSimpleName}: ${e.getMessage}"); false }
    if (!ok) { failed += 1; note(s"failed: $what") }
  }

  def note(msg: String): Unit = if (failures.length < 50) failures += msg

  def span[A](name: String)(body: => A): A = tracer.span(name)(body)

  def recordOpMs(ms: Double): Unit = if (!traced) opMs += ms
}

/** Bytes allocated on the Java heap, from the HotSpot per-thread counters. */
object Alloc {
  private val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def currentThread(): Long = bean.getCurrentThreadAllocatedBytes

  /** Allocated bytes of every live thread, by thread id. */
  def allThreads(): Map[Long, Long] = {
    val ids = bean.getAllThreadIds
    ids.zip(bean.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes allocated between two [[allThreads]] snapshots by threads alive at
    * the second; a thread started in between counts from zero.
    */
  def between(before: Map[Long, Long], after: Map[Long, Long]): Long =
    after.iterator.map { case (id, b) => b - before.getOrElse(id, 0L) }.filter(_ > 0).sum
}

/** CPU time of the whole process (every thread, GC and JIT included). */
object Cpu {
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def process(): Long = os.getProcessCpuTime
}

/** Metric names, units and directions; BENCHMARK.json lists the same. */
object Metrics {
  final case class Def(name: String, unit: String, better: String)

  val EndToEnd: Seq[Def] = Seq(
    Def("setup_s", "s", "lower"),
    Def("wall_s", "s", "lower"),
    Def("op_ms_mean", "ms", "lower"),
    Def("alloc_MB", "MB", "lower"),
    Def("ratio_geomean", "x", "higher"),
    Def("psnr_db_mean", "dB", "higher"),
  )

  /** Per-layer metric -> span whose self time per traced pass it reports. */
  val SpanTimes: Seq[(String, String)] =
    Seq("lorenzo", "interp", "regression").flatMap { p =>
      Seq(s"compressor.predict_ms.$p" -> s"compressor.predict.$p",
        s"compressor.reconstruct_ms.$p" -> s"compressor.reconstruct.$p")
    } ++ Seq(
      "compressor.huff_build_ms" -> "compressor.huff_build",
      "compressor.huff_encode_ms" -> "compressor.huff_encode",
      "compressor.huff_decode_ms" -> "compressor.huff_decode",
      "compressor.deflate_ms" -> "compressor.deflate",
      "compressor.rle_ms" -> "compressor.rle",
      "core.sample_ms.lorenzo" -> "core.sample.lorenzo",
      "core.sample_ms.interp" -> "core.sample.interp",
      "core.sample_ms.regression" -> "core.sample.regression",
      "core.inv_psnr_ms" -> "core.inv_psnr",
      "core.inv_bitrate_ms" -> "core.inv_bitrate",
      "core.fullscan_ms" -> "core.fullscan",
      "usecases.insitu_ms" -> "usecases.insitu",
      "analysis.psnr_ms" -> "analysis.psnr",
      "analysis.ssim_ms" -> "analysis.ssim",
    )

  /** Spans of the replayed stages that `Compressor.compress` runs. */
  val CompressStages: Seq[String] =
    Seq("lorenzo", "interp", "regression").map(p => s"compressor.predict.$p") ++
      Seq("compressor.huff_build", "compressor.huff_encode", "compressor.deflate", "compressor.rle")

  val PerLayer: Seq[Def] =
    SpanTimes.map { case (m, _) => Def(m, "ms", "lower") } ++ Seq(
      Def("compressor.compress_other_ms", "ms", "lower"),
      Def("compressor.compress_MBps", "MB/s", "higher"),
      Def("compressor.decompress_MBps", "MB/s", "higher"),
      Def("compressor.points", "count", "higher"),
      Def("compressor.distinct_codes", "count", "lower"),
      Def("compressor.payload_bits", "bits", "lower"),
      Def("compressor.escapes", "count", "lower"),
      Def("compressor.alloc_B_per_point.compress", "B/point", "lower"),
      Def("compressor.alloc_B_per_point.decompress", "B/point", "lower"),
      Def("core.decision_ms_p50", "ms", "lower"),
      Def("core.decision_ms_p90", "ms", "lower"),
      Def("core.target_err_pct", "%", "lower"),
      Def("core.estimate_ms.patchsim", "ms", "lower"),
      Def("core.estimate_ms.analytic", "ms", "lower"),
      Def("core.estimates_per_inversion", "estimates", "lower"),
      Def("core.sampled_points", "count", "lower"),
      Def("core.patches", "count", "lower"),
      Def("core.alloc_B_per_estimate", "B", "lower"),
      Def("core.huff_err_pct", "%", "lower"),
      Def("core.huffll_err_pct", "%", "lower"),
      Def("core.psnr_err_pct", "%", "lower"),
      Def("core.ssim_err_pct", "%", "lower"),
      Def("sparkapi.tasks", "count", "lower"),
      Def("sparkapi.task_run_ms_sum", "ms", "lower"),
      Def("sparkapi.task_run_ms_max", "ms", "lower"),
      Def("sparkapi.straggler_ratio", "ratio", "lower"),
      Def("sparkapi.sched_delay_ms", "ms", "lower"),
      Def("sparkapi.deser_ms", "ms", "lower"),
      Def("sparkapi.gc_ms", "ms", "lower"),
      Def("sparkapi.shuffle_bytes", "B", "lower"),
      Def("sparkapi.busy_share", "fraction", "higher"),
      Def("sparkapi.aggregate_ms", "ms", "lower"),
      Def("data.generate_ms", "ms", "lower"),
      Def("trace.overhead_pct", "%", "lower"),
      Def("trace.spans", "count", "lower"),
    )
}

/** Runs one workload: repeated set-up, then passes until the time is spent,
  * then the checks; prints provenance, a report and the result line.
  */
object Harness {
  val SetupRepeats = 3

  final case class PassStat(wall: Double, cpu: Double, allocBytes: Long, traced: Boolean)

  final case class Outcome(correct: Boolean, lines: Seq[String])

  def run(w: Workload, workload: String, seed: Long, seconds: Double, trace: Boolean,
          info: Seq[(String, Any)], spanFile: Option[java.io.File]): Outcome = {
    val tracer = new Tracer
    val run = new Run(seed, tracer)

    val generateMs = ArrayBuffer.empty[Double]
    val setupS = (1 to SetupRepeats).map { i =>
      if (i > 1) w.teardown()
      val g0 = run.generateNs
      val t0 = System.nanoTime()
      w.setup(run)
      generateMs += (run.generateNs - g0) / 1e6
      (System.nanoTime() - t0) / 1e9
    }

    val passes = ArrayBuffer.empty[PassStat]
    var measured = 0.0
    def enough: Boolean =
      measured >= seconds && passes.exists(!_.traced) && (!trace || passes.exists(_.traced))
    while (!enough) {
      // traced runs alternate untraced and traced passes, so the run itself
      // gives the tracing overhead
      run.traced = trace && run.pass % 2 == 1
      tracer.active = run.traced
      tracer.pass = run.pass
      val a0 = Alloc.allThreads()
      val c0 = Cpu.process()
      val t0 = System.nanoTime()
      w.pass(run)
      val wall = (System.nanoTime() - t0) / 1e9
      val cpu = (Cpu.process() - c0) / 1e9
      val alloc = Alloc.between(a0, Alloc.allThreads())
      passes += PassStat(wall, cpu, alloc, run.traced)
      measured += wall
      if (run.traced) {
        val r0 = System.nanoTime()
        w.replay(run)
        measured += (System.nanoTime() - r0) / 1e9
      }
      tracer.active = false
      run.traced = false
      run.pass += 1
    }

    val quality = w.finish(run)
    val plain = passes.filterNot(_.traced)
    val wallS = Stats.median(plain.map(_.wall).toSeq)
    val e2e: Map[String, Double] = Map(
      "setup_s" -> Stats.median(setupS),
      "wall_s" -> wallS,
      "op_ms_mean" -> (if (run.opMs.isEmpty) Double.NaN else Stats.mean(run.opMs.toSeq)),
      "alloc_MB" -> Stats.median(plain.map(_.allocBytes / 1e6).toSeq),
      "ratio_geomean" -> quality.ratioGeomean,
      "psnr_db_mean" -> quality.psnrDbMean,
    )
    if (run.opMs.isEmpty) run.note("no operation latency was recorded")

    val metrics: Seq[(String, Any)] =
      if (!trace) Metrics.EndToEnd.map(d => d.name -> Json.Fields(Seq("value" -> e2e(d.name), "unit" -> d.unit)))
      else {
        val spans = tracer.spans
        val nTraced = passes.count(_.traced)
        val selfMs = Trace.selfMsByName(spans)
        val layer = mutable.Map.empty[String, Double]
        Metrics.SpanTimes.foreach { case (m, s) => layer(m) = selfMs.getOrElse(s, 0.0) / nTraced }
        // the replay makes the same compressions as the traced passes' compress spans
        selfMs.get("compressor.compress").foreach { total =>
          val stages = Metrics.CompressStages.map(selfMs.getOrElse(_, 0.0)).sum
          layer("compressor.compress_other_ms") = (total - stages) / nTraced
        }
        // single estimates: median per call, not a per-pass total
        Seq("patchsim", "analytic").foreach { path =>
          val calls = spans.filter(_.name == s"core.estimate.$path").map(_.nanos / 1e6)
          if (calls.nonEmpty) layer(s"core.estimate_ms.$path") = Stats.median(calls)
        }
        layer ++= run.layer
        layer("data.generate_ms") = Stats.median(generateMs.toSeq)
        val tracedWall = Stats.median(passes.filter(_.traced).map(_.wall).toSeq)
        layer("trace.overhead_pct") = (tracedWall / wallS - 1) * 100
        layer("trace.spans") = spans.length.toDouble
        spanFile.foreach { f =>
          f.getParentFile.mkdirs()
          val out = new java.io.PrintWriter(f, "UTF-8")
          try Trace.toJsonLines(spans).foreach(out.println) finally out.close()
        }
        Metrics.PerLayer.map { d =>
          d.name -> Json.Fields(Seq("value" -> layer.getOrElse(d.name, 0.0), "unit" -> d.unit))
        }
      }

    val badMetric = metrics.collectFirst {
      case (n, Json.Fields(Seq(("value", v: Double), _))) if v.isNaN || v.isInfinite => n
    }
    badMetric.foreach(n => run.note(s"metric $n is not a finite number"))
    val correct = run.failed == 0 && run.failures.isEmpty
    val walls = plain.map(_.wall).toSeq

    val provenance = Json.obj(Seq("provenance" -> Json.Fields(
      Seq(
        "workload" -> workload,
        "seed" -> seed,
        "trace" -> trace,
        "seconds" -> seconds,
        "nproc" -> Runtime.getRuntime.availableProcessors(),
        "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
        "xmx_MB" -> Runtime.getRuntime.maxMemory() / (1L << 20),
      ) ++ w.provenance ++ info ++ Seq(
        "passes" -> plain.length,
        "traced_passes" -> passes.count(_.traced),
        "setup_runs_s" -> setupS,
        "pass_walls_s" -> walls,
        "pass_alloc_MB" -> plain.map(_.allocBytes / 1e6).toSeq,
        "pass_cpu_s" -> plain.map(_.cpu).toSeq,
        "pass_wall_quartiles_s" -> (if (walls.length < 2) Nil else {
          val (q1, q2, q3) = Stats.quartiles(walls)
          Seq(q1, q2, q3)
        }),
        "op_samples" -> run.opMs.length,
      ))))
    // the median and the tail of the operation latency, with the sample count
    val percentiles = ((if (run.opMs.isEmpty) None else Some(50.0)) ++ Stats.tailPercentile(run.opMs.length)).toSeq.distinct
    val reportFields: Seq[(String, Any)] =
      Seq("pass_cpu_s" -> Json.Fields(Seq("value" -> Stats.median(plain.map(_.cpu).toSeq), "unit" -> "s"))) ++
      run.report.toSeq.map { case (k, (v, u)) => k -> Json.Fields(Seq("value" -> v, "unit" -> u)) } ++
        percentiles.map(p => s"op_ms_p${fmtPct(p)}" -> Json.Fields(Seq(
          "value" -> Stats.percentile(run.opMs.toSeq, p), "unit" -> "ms", "samples" -> run.opMs.length)))
    val report = Json.obj(Seq("report" -> Json.Fields(reportFields), "failures" -> run.failures.toSeq))
    val result = Json.obj(Seq(
      "correct" -> correct,
      "attempted" -> run.attempted,
      "failed" -> run.failed,
      "metrics" -> Json.Fields(if (badMetric.isDefined) Nil else metrics),
    ))
    Outcome(correct, Seq(provenance, report, result))
  }

  private def fmtPct(p: Double): String =
    if (p == math.rint(p)) p.toInt.toString else p.toString.replace('.', '_')
}
