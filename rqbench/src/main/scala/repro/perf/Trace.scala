package repro.perf

import scala.collection.mutable.ArrayBuffer

/** One timed call: `parent` is the id of the enclosing span, -1 at the top. */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, pass: Int) {
  def nanos: Long = end - start
}

/** Records spans around the benchmark's calls into the program. Spans stay in
  * memory until the run ends. While inactive, [[span]] only runs its body, so
  * untraced passes pay one branch per call.
  */
final class Tracer {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  var active = false
  var pass = 0

  def span[A](name: String)(body: => A): A =
    if (!active) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        done += Span(id, name, t0, t1, parent, pass)
      }
    }

  def spans: Seq[Span] = done.toSeq
}

object Trace {

  /** Self time of every span: its duration minus the part of its interval
    * that its direct children cover (overlapping children counted once).
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curB) {
          if (curB > curA) covered += curB - curA
          curA = a; curB = b
        } else if (b > curB) curB = b
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.nanos - covered)
    }.toMap
  }

  /** Self time per span name, in ms, summed over all spans. */
  def selfMsByName(spans: Seq[Span]): Map[String, Double] = {
    val self = selfNanos(spans)
    spans.groupBy(_.name).map { case (n, ss) => n -> ss.map(s => self(s.id)).sum / 1e6 }
  }

  def toJsonLines(spans: Seq[Span]): Iterator[String] =
    spans.sortBy(_.start).iterator.map { s =>
      Json.obj(Seq("id" -> s.id, "name" -> s.name, "start_ns" -> s.start, "end_ns" -> s.end,
        "parent" -> s.parent, "pass" -> s.pass))
    }
}
