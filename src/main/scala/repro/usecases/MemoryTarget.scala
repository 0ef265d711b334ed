package repro.usecases

import repro.compressor.{Compressor, CompressionResult, Predictor}
import repro.core.{Field, RQModel}

/** Use-case 2 (§IV-B, Fig. 11): compress a group of datasets into an assigned
  * memory budget. The model inverts the target bit-rate to an error bound,
  * with a 20 % headroom (target = 80 % of the budget) absorbing the model's
  * estimation uncertainty; the rare overflow triggers a cheap second-round
  * re-optimization at a lower target.
  */
object MemoryTarget {

  /** Result for one group.
    *
    * @param budgetBytes  assigned space
    * @param usedBytes    actual compressed size after (possible) re-rounds
    * @param firstRoundBytes size after the first optimization round
    * @param rounds       1 if the first round fit, 2+ per re-optimization
    * @param ebUsed       final absolute error bound
    */
  final case class Outcome(
      budgetBytes: Long,
      usedBytes: Long,
      firstRoundBytes: Long,
      rounds: Int,
      ebUsed: Double,
  ) {
    def usedFraction: Double = usedBytes.toDouble / budgetBytes
    def overflowedFirstRound: Boolean = firstRoundBytes > budgetBytes
  }

  /** Headroom factor from the paper: optimize towards 80 % of the budget. */
  val Headroom = 0.8

  /** Fit `field` into `budgetBytes`: compress at the model's error bound
    * and, while the result overflows, again with the target shrunk 20 %, in
    * at most 4 rounds.
    */
  def fit(field: Field, budgetBytes: Long, predictor: Predictor): Outcome = {
    val model = RQModel.build(field, predictor)
    var target = Headroom * budgetBytes * 8.0 / field.size // bits/point
    var rounds = 0
    var first: Option[CompressionResult] = None
    var res: CompressionResult = null
    var eb = 0.0
    var done = false
    while (!done && rounds < 4) {
      rounds += 1
      eb = model.errorBoundForBitRate(target, withLossless = true)
      res = Compressor.compress(field, eb, predictor)
      if (first.isEmpty) first = Some(res)
      if (res.huffPlusLLBytes <= budgetBytes) done = true
      else target *= 0.8
    }
    Outcome(budgetBytes, res.huffPlusLLBytes, first.get.huffPlusLLBytes, rounds, eb)
  }
}
