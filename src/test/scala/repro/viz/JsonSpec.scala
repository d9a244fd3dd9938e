package repro.viz

import java.nio.file.Files

import com.fasterxml.jackson.databind.ObjectMapper

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

import repro.core.CapTableSpec

/** The writer is validated by parsing its output with Jackson (which ships
  * with Spark) — if Jackson accepts it and the values round-trip, the JSON
  * is well-formed.
  */
class JsonSpec extends AnyFunSuite {

  private val mapper = new ObjectMapper()

  /** The text `write` leaves in an in-memory [[JsonOut]]. */
  private def written(write: JsonOut => JsonOut): String = write(new JsonOut).text

  test("scalars render canonically") {
    assert(written(_.num(3.0)) == "3")
    assert(written(_.num(3.25)) == "3.25")
    assert(written(_.long(-7)) == "-7")
    assert(written(_.str("hi")) == "\"hi\"")
  }

  test("large integers keep integer form below 1e15") {
    assert(written(_.num(52261.0)) == "52261")
    assert(written(_.num(2329936.0)) == "2329936")
    assert(written(_.num(1e15)) == "1.0E15")
  }

  test("NaN and infinities degrade to null (JSON has no representation)") {
    assert(written(_.num(Double.NaN)) == "null")
    assert(written(_.num(Double.PositiveInfinity)) == "null")
    assert(written(_.num(Double.NegativeInfinity)) == "null")
  }

  test("strings with quotes, backslashes, newlines and control chars escape correctly") {
    val nasty = "a\"b\\c\nd\te\rfg\u0001"
    val rendered = written(_.str(nasty))
    assert(rendered == "\"a\\\"b\\\\c\\nd\\te\\rfg\\u0001\"")
    assert(mapper.readTree(rendered).asText() == nasty)
  }

  test("unicode text passes through") {
    val s = "温度 – ③ sensors ü"
    assert(mapper.readTree(written(_.str(s))).asText() == s)
  }

  // The mkString-based renderer of numbers and strings that JsonOut
  // replaced; the oracle for the property below.
  private def oracleNum(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.floor(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  private def oracleQuote(s: String): String =
    s.map {
      case '"'          => "\\\""
      case '\\'         => "\\\\"
      case '\b'         => "\\b"
      case '\f'         => "\\f"
      case '\n'         => "\\n"
      case '\r'         => "\\r"
      case '\t'         => "\\t"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c            => c.toString
    }.mkString("\"", "", "\"")

  private val text: Gen[String] = Gen.listOf(Gen.frequency(
    6 -> Gen.alphaNumChar.map(_.toString),
    2 -> Gen.oneOf("\"", "\\", "/", " ", "\\u0000"),
    2 -> Gen.choose('\u0000', '\u001f').map(_.toString),
    2 -> Gen.oneOf("é", "温度", "–", "\u007f", "\u2028", "\uFB01", "\uD83D\uDE00"),
  )).map(_.mkString)

  private val number: Gen[Double] = Gen.frequency(
    3 -> Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0, 0.0,
      1e15, -1e15, 1e15 - 1, 1e15 + 2, math.nextDown(1e15), 999999999999999.9, 1e16, 1e21, 1e-7,
      Double.MinPositiveValue, Double.MaxValue, Long.MaxValue.toDouble),
    3 -> Gen.choose(-1e6, 1e6).map(math.rint),
    3 -> Gen.choose(-1e6, 1e6),
    2 -> Gen.choose(9.9e14, 1.01e15),
    2 -> Gen.choose(9.9e14, 1.01e15).map(math.rint),
    1 -> Gen.choose(-Double.MaxValue, Double.MaxValue),
  )

  test("property: numbers and strings are written as the mkString renderer writes them, and Jackson reads them back") {
    val prop = Prop.forAll(number, text) { (x, s) =>
      val num = written(_.num(x))
      val str = written(_.str(s))
      val back = mapper.readTree(s"[$num,$str]")
      num == oracleNum(x) && str == oracleQuote(s) &&
        (if (x.isNaN || x.isInfinite) back.get(0).isNull else back.get(0).isNumber && back.get(0).doubleValue == x) &&
        back.get(1).isTextual && back.get(1).textValue == s
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(4L)), prop)
    assert(result.passed, result.status)
  }

  /** One write to a [[JsonOut]]: bytes, keys, numbers, quoted names (the
    * CAP tables' tricky names among them) and byte arrays of up to 300
    * bytes.
    */
  private val write: Gen[JsonOut => JsonOut] = Gen.frequency(
    3 -> Gen.oneOf('[', ']', ',', ':', '{', '}').map(c => (out: JsonOut) => out.byte(c)),
    2 -> Gen.oneOf("{\"capId\":", ",\"points\":[", "null", "]}", "").map(s => (out: JsonOut) => out.ascii(s)),
    3 -> Gen.oneOf(CapTableSpec.trickyNames).map(s => (out: JsonOut) => out.str(s)),
    2 -> text.map(s => (out: JsonOut) => out.str(s)),
    2 -> Gen.oneOf(Gen.choose(Long.MinValue, Long.MaxValue), Gen.choose(0L, 1000L)).map(x => (out: JsonOut) => out.long(x)),
    2 -> number.map(x => (out: JsonOut) => out.num(x)),
    2 -> Gen.choose(0, 300).flatMap(n => Gen.listOfN(n, Gen.oneOf(CapTableSpec.trickyNames)))
      .map(names => names.mkString("\u00e9").getBytes("UTF-8")).map(b => (out: JsonOut) => out.bytes(b)),
  )

  /** The bytes `writes` leave in an in-memory [[JsonOut]] and in a file
    * written through a buffer of `capacity` bytes.
    */
  private def memoryAndFile(writes: Seq[JsonOut => JsonOut], capacity: Int): (Seq[Byte], Seq[Byte]) = {
    val memory = new JsonOut
    writes.foreach(_(memory))
    val path = Files.createTempDirectory("json-out").resolve("payload.json")
    try {
      JsonOut.write(path, capacity)(out => writes.foreach(_(out)))
      (memory.toBytes.toSeq, Files.readAllBytes(path).toSeq)
    } finally Files.deleteIfExists(path)
  }

  test("property: a JsonOut on a file writes the bytes of one in memory, across flushes and wide arrays") {
    val capacity = Gen.oneOf(1, 2, 3, 7, 16, 64, 257, JsonOut.FileBuffer)
    val prop = Prop.forAll(capacity, Gen.resize(200, Gen.listOf(write))) { (capacity, writes) =>
      val (memory, file) = memoryAndFile(writes, capacity)
      memory == file
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(18L)), prop)
    assert(result.passed, result.status)
  }

  test("a file payload several buffers long is the bytes of the one in memory") {
    val names = CapTableSpec.trickyNames
    val wide = Array.fill(3 * JsonOut.FileBuffer + 5)('x'.toByte)
    val writes = (0 until 20000).map(i => (out: JsonOut) => out.str(names(i % names.length)).byte(',').long(i)) :+
      ((out: JsonOut) => out.bytes(wide)) :+ ((out: JsonOut) => out.ascii("]"))
    val (memory, file) = memoryAndFile(writes, JsonOut.FileBuffer)
    assert(file.length > 4 * JsonOut.FileBuffer && file == memory)
  }
}
