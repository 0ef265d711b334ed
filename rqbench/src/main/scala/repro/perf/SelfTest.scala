package repro.perf

/** Checks of the benchmark's own arithmetic. Every run executes them first
  * and refuses to measure if one fails; `--self-test` runs only them.
  */
object SelfTest {

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  /** Names of the failed checks (empty when all hold). */
  def failures(): Seq[String] = {
    val checks = Seq[(String, () => Boolean)](
      "median of odd count" -> (() => Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0),
      "median of even count" -> (() => Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5),
      // reference values from Python: statistics.quantiles(xs, n=4)
      "quartiles of 1..10" -> (() => Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 5.5, 8.25))),
      "quartiles of 5 values" -> (() => {
        val (q1, q2, q3) = Stats.quartiles(Seq(7.0, 1.0, 3.0, 9.0, 5.0))
        close(q1, 2.0) && close(q2, 5.0) && close(q3, 8.0)
      }),
      "quartiles of 2 values" -> (() => Stats.quartiles(Seq(1.0, 2.0)) == ((0.75, 1.5, 2.25))),
      "percentile interpolates" -> (() =>
        close(Stats.percentile((0 to 10).map(_.toDouble), 90), 9.0) &&
          close(Stats.percentile(Seq(1.0, 2.0), 50), 1.5)),
      "tail percentile needs ten samples beyond" -> (() =>
        Stats.tailPercentile(19).isEmpty &&
          Stats.tailPercentile(20).contains(50.0) &&
          Stats.tailPercentile(99).contains(50.0) &&
          Stats.tailPercentile(100).contains(90.0) &&
          Stats.tailPercentile(999).contains(90.0) &&
          Stats.tailPercentile(1000).contains(99.0) &&
          Stats.tailPercentile(10000).contains(99.9)),
      "geometric mean" -> (() => close(Stats.geomean(Seq(1.0, 4.0, 16.0)), 4.0)),
      "self time subtracts children once" -> (() => {
        // parent 0..100 with children 10..30 and 20..50 (overlap), and a
        // grandchild that must not count against the parent
        val spans = Seq(
          Span(0, "p", 0, 100, -1, 0),
          Span(1, "a", 10, 30, 0, 0),
          Span(2, "b", 20, 50, 0, 0),
          Span(3, "c", 12, 28, 1, 0),
        )
        val self = Trace.selfNanos(spans)
        self(0) == 60 && self(1) == 4 && self(2) == 30 && self(3) == 16
      }),
      "self time clips children to the parent" -> (() =>
        Trace.selfNanos(Seq(Span(0, "p", 0, 10, -1, 0), Span(1, "a", 5, 20, 0, 0)))(0) == 5),
      "tracer nests spans" -> (() => {
        val t = new Tracer
        t.active = true
        t.span("outer")(t.span("inner")(()))
        val Seq(inner, outer) = t.spans
        inner.parent == outer.id && outer.parent == -1 && inner.name == "inner"
      }),
      "metric names" -> (() =>
        Seq("wall_s", "core.estimate_ms.patchsim", "a-b.c_d", "9x").forall(Stats.validName) &&
          !Seq("", "_x", ".x", "a b", "a/b", "x" * 65).exists(Stats.validName)),
      "declared metrics are valid and distinct" -> (() => {
        val all = Metrics.EndToEnd ++ Metrics.PerLayer
        all.forall(d => Stats.validName(d.name) && Stats.validUnit(d.unit) &&
          Set("lower", "higher").contains(d.better)) &&
          all.map(_.name).distinct.length == all.length
      }),
      "json escapes" -> (() => Json.str("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\""),
    )
    checks.collect { case (name, f) if !scala.util.Try(f()).getOrElse(false) => name }
  }
}
