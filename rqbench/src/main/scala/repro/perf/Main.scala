package repro.perf

/** Entry point: `Main --workload <codec|tune|table2> --seed <n> --seconds <s>
  * --trace <0|1> [--span-file <path>] [--info key=value ...]`, or
  * `Main --self-test`. The last line on stdout is the result object.
  *
  * Exit codes: 0 all outputs correct; 1 an output check failed; 2 bad
  * arguments; 3 a self-test failed; 4 the workload could not start (for
  * `table2`, the SparkSession).
  */
object Main {

  final class StartupFailure(msg: String, cause: Throwable) extends RuntimeException(msg, cause)

  def main(args: Array[String]): Unit = {
    val bad = SelfTest.failures()
    if (bad.nonEmpty) {
      System.err.println(s"self-test failed: ${bad.mkString("; ")}")
      sys.exit(3)
    }
    if (args.contains("--self-test")) {
      println("self-test passed")
      return
    }
    val opts = parse(args.toList)
    def need(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = need("workload")
    val seed = scala.util.Try(need("seed").toLong).getOrElse(usage("--seed must be an integer"))
    val seconds = scala.util.Try(need("seconds").toDouble).toOption.filter(_ > 0)
      .getOrElse(usage("--seconds must be a positive number"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case _ => usage("--trace must be 0 or 1")
    }
    val w: Workload = workload match {
      case "codec" => new Codec
      case "tune" => new Tune
      case "table2" => new Table2
      case other => usage(s"unknown workload $other (codec, tune, table2)")
    }
    val info = opts.toSeq.collect { case (k, v) if k.startsWith("info.") => k.stripPrefix("info.") -> v }.sortBy(_._1)
    val outcome =
      try Harness.run(w, workload, seed, seconds, trace, info, opts.get("span-file").map(new java.io.File(_)))
      catch {
        case e: StartupFailure =>
          System.err.println(s"$workload could not start: ${e.getMessage}")
          Option(e.getCause).foreach(_.printStackTrace())
          sys.exit(4)
      }
      finally w.teardown()
    outcome.lines.foreach(println)
    System.out.flush()
    sys.exit(if (outcome.correct) 0 else 1)
  }

  private def parse(args: List[String]): Map[String, String] = args match {
    case Nil => Map.empty
    case "--info" :: kv :: rest if kv.contains('=') =>
      val (k, v) = kv.span(_ != '=')
      parse(rest) + (s"info.$k" -> v.drop(1))
    case flag :: value :: rest if flag.startsWith("--") => parse(rest) + (flag.drop(2) -> value)
    case other :: _ => usage(s"unexpected argument $other")
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: --workload <codec|tune|table2> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }
}
