package repro.compressor

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SciData

/** The 153 compression cases (17 registry fields at test dims × 3
  * predictors × relative error bounds 1e-2, 1e-3, 1e-4), each reduced to one
  * line: the SHA-256 of its `compress` blob, the size fields of its
  * `CompressionResult`, and the SHA-256 of the raw bits of its
  * reconstruction, so a drift of one ulp in any reconstructed value shows.
  */
object CodecGolden {
  val Resource = "/repro/compressor/codec-golden.csv"
  val Header = "field,predictor,rel,blob_sha256,huffPayloadBits,codebookBytes,sideBytes,unpredCount,huffLLBytes,p0,recon_sha256"
  val EbRels: Seq[Double] = Seq(1e-2, 1e-3, 1e-4)

  private def sha256(bytes: Array[Byte]): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"${b & 0xff}%02x").mkString

  private def reconSha256(recon: repro.core.Field): String = {
    val bb = java.nio.ByteBuffer.allocate(recon.size * 8)
    recon.data.foreach(d => bb.putLong(java.lang.Double.doubleToRawLongBits(d)))
    sha256(bb.array())
  }

  def rows(): Seq[String] =
    for {
      spec <- SciData.fields
      f = spec.generate(test = true)
      p <- Predictor.all
      rel <- EbRels
    } yield {
      val eb = rel * f.valueRange
      val r = Compressor.compress(f, eb, p)
      Seq(spec.id, p.name, rel, sha256(r.blob), r.huffPayloadBits, r.codebookBytes, r.sideBytes,
        r.unpredCount, r.huffLLBytes, r.p0, reconSha256(r.recon)).mkString(",")
    }

  def recorded(): Seq[String] = {
    val src = scala.io.Source.fromInputStream(getClass.getResourceAsStream(Resource), "UTF-8")
    try src.getLines().toList finally src.close()
  }
}

class CodecGoldenSpec extends AnyFunSuite {

  test("every codec case's blob and size fields match the recorded values") {
    val recorded = CodecGolden.recorded()
    assert(recorded.head == CodecGolden.Header)
    val expected = recorded.tail
    val actual = CodecGolden.rows()
    assert(actual.length == 153 && expected.length == 153)
    val diffs = expected.zip(actual).filter { case (e, a) => e != a }
    assert(diffs.isEmpty, diffs.take(5).map { case (e, a) => s"\n  recorded $e\n  actual   $a" }.mkString)
  }
}
