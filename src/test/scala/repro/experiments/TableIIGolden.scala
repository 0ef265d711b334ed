package repro.experiments

/** The six error columns of every row of the test-scale Table II
  * (`TableII.run(spark, test = true, nChunks = 2, ebRels = EbRels)`), one
  * row a line, each value as the shortest decimal that reads back to the
  * same double; a field without an SSIM column records `-`.
  *
  * Spark sums partial aggregates in an order that depends on the core count,
  * so a rerun may differ from the record in the last bits; [[matches]]
  * allows 1e-9 relative.
  */
object TableIIGolden {
  val Resource = "/repro/experiments/table2-golden.csv"
  val Header = "dataset,field,sampleErr,huffErr,losslessErr,huffLLErr,psnrErr,ssimErr"
  val EbRels: Seq[Double] = Seq(1e-3, 5e-3, 1e-2, 5e-2)
  val RelTol = 1e-9

  def rows(res: TableII.Result): Seq[String] =
    res.rows.map { r =>
      (Seq(r.dataset, r.field) ++
        Seq(r.sampleErr, r.huffErr, r.losslessErr, r.huffLLErr, r.psnrErr).map(_.toString) :+
        r.ssimErr.fold("-")(_.toString)).mkString(",")
    }

  /** Same fields, same missing columns, every value within [[RelTol]]. */
  def matches(recorded: String, actual: String): Boolean = {
    val (e, a) = (recorded.split(','), actual.split(','))
    e.length == a.length && e.take(2).sameElements(a.take(2)) &&
      e.drop(2).zip(a.drop(2)).forall {
        case (x, y) if x == "-" || y == "-" => x == y
        case (x, y) =>
          val (u, v) = (x.toDouble, y.toDouble)
          u == v || math.abs(u - v) <= RelTol * math.max(math.abs(u), math.abs(v))
      }
  }

  def recorded(): Seq[String] = {
    val src = scala.io.Source.fromInputStream(getClass.getResourceAsStream(Resource), "UTF-8")
    try src.getLines().toList finally src.close()
  }
}
