package repro.compressor

/** The quantizer's code by division, as first written, kept as the
  * reference definition: [[Quantizer.quantize]] is checked against it in
  * `QuantizerSpec`, and every encoder through the per-point reference
  * compressors that code with it (`LorenzoStencilSpec`, `PatchWalkSpec`,
  * `PredictionKernelSpec`, [[RegressionReference]]).
  */
object QuantizerReference {

  /** The code of one prediction, or [[Quantizer.Escape]] when the point
    * must be stored verbatim: `rint((actual − pred) / interval)`, escaped
    * when NaN, when its magnitude reaches [[Quantizer.Radius]], or when
    * `reconstruct(pred, code)` lies more than `eb·(1 + 1e-10)` from
    * `actual`.
    */
  def code(q: Quantizer, pred: Double, actual: Double): Int = {
    val r = math.rint((actual - pred) / q.interval)
    if (r.isNaN || math.abs(r) >= Quantizer.Radius) Quantizer.Escape
    else {
      val c = r.toInt
      if (math.abs(q.reconstruct(pred, c) - actual) > q.eb * (1 + 1e-10)) Quantizer.Escape
      else c
    }
  }
}
