package repro.perf

/** Minimal JSON writer for the benchmark's output lines. Keys keep their
  * insertion order; doubles print with all their digits.
  */
object Json {

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def value(v: Any): String = v match {
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d cannot be written as JSON")
      d.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case fs: Fields => obj(fs.fields)
    case xs: Iterable[_] => xs.map(value).mkString("[", ", ", "]")
    case other => throw new IllegalArgumentException(s"no JSON form for ${other.getClass.getName}")
  }

  /** An ordered object nested inside another. */
  final case class Fields(fields: Seq[(String, Any)])

  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\r' => sb.append("\\r")
      case '\t' => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }
}
