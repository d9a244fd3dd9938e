package repro.viz

import java.nio.file.Files

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}

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

  test("scalars render canonically") {
    assert(JNull.render == "null")
    assert(JBool(true).render == "true")
    assert(JBool(false).render == "false")
    assert(JNum(3.0).render == "3")
    assert(JNum(3.25).render == "3.25")
    assert(JStr("hi").render == "\"hi\"")
  }

  test("NaN and infinities degrade to null (JSON has no representation)") {
    assert(JNum(Double.NaN).render == "null")
    assert(JNum(Double.PositiveInfinity).render == "null")
  }

  test("strings with quotes, backslashes, newlines and control chars escape correctly") {
    val nasty = "a\"b\\c\nd\te\rfg"
    val rendered = JStr(nasty).render
    val parsed = mapper.readTree(rendered)
    assert(parsed.asText() == nasty)
  }

  test("unicode text passes through") {
    val s = "温度 – ③ sensors ü"
    assert(mapper.readTree(JStr(s).render).asText() == s)
  }

  test("arrays and objects nest and preserve field order") {
    val v = Json.obj(
      "name" -> Json.str("cap"),
      "support" -> Json.num(12),
      "sensors" -> Json.arr(Json.str("a"), Json.str("b")),
      "nested" -> Json.obj("x" -> JBool(true), "y" -> JNull),
    )
    val tree = mapper.readTree(v.render)
    assert(tree.get("name").asText() == "cap")
    assert(tree.get("support").asInt() == 12)
    assert(tree.get("sensors").get(1).asText() == "b")
    assert(tree.get("nested").get("x").asBoolean())
    assert(tree.get("nested").get("y").isNull)
    val names = tree.fieldNames()
    assert(names.next() == "name" && names.next() == "support")
  }

  test("empty array and object render") {
    assert(JArr(Nil).render == "[]")
    assert(JObj(Nil).render == "{}")
    assert(mapper.readTree(JArr(Nil).render).isArray)
  }

  test("a pre-rendered node renders as is, also inside a tree") {
    assert(JRaw("[1,\"\u00e9\"]").render == "[1,\"\u00e9\"]")
    assert(Json.arr(JRaw("{\"a\":1}"), JNum(2)).render == "[{\"a\":1},2]")
  }

  test("large integers keep integer form below 1e15") {
    assert(JNum(52261.0).render == "52261")
    assert(JNum(2329936.0).render == "2329936")
  }

  // The recursive, mkString-based renderer `render` replaced; the oracle
  // for the property below.
  private def oracle(v: JValue): String = v match {
    case JNull        => "null"
    case JBool(b)     => b.toString
    case JNum(x)      =>
      if (x.isNaN || x.isInfinite) "null"
      else if (x == math.floor(x) && math.abs(x) < 1e15) x.toLong.toString
      else x.toString
    case JStr(s)      => oracleQuote(s)
    case JArr(xs)     => xs.map(oracle).mkString("[", ",", "]")
    case JObj(fields) => fields.map { case (k, x) => s"${oracleQuote(k)}:${oracle(x)}" }.mkString("{", ",", "}")
    case JRaw(json)   => json
  }

  private def oracleQuote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'          => sb.append("\\\"")
      case '\\'         => sb.append("\\\\")
      case '\b'         => sb.append("\\b")
      case '\f'         => sb.append("\\f")
      case '\n'         => sb.append("\\n")
      case '\r'         => sb.append("\\r")
      case '\t'         => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c            => sb.append(c)
    }
    sb.append('"').toString
  }

  /** True iff Jackson's parse `n` holds the same value as `v`. */
  private def same(v: JValue, n: JsonNode): Boolean = v match {
    case JNull    => n.isNull
    case JBool(b) => n.isBoolean && n.booleanValue == b
    case JNum(x)  => if (x.isNaN || x.isInfinite) n.isNull else n.isNumber && n.doubleValue == x
    case JStr(s)  => n.isTextual && n.textValue == s
    case JArr(xs) => n.isArray && n.size == xs.size && xs.indices.forall(i => same(xs(i), n.get(i)))
    case JObj(fs) =>
      n.isObject && n.fieldNames.asScala.toSeq == fs.map(_._1) && fs.forall { case (k, x) => same(x, n.get(k)) }
    case JRaw(json) => mapper.readTree(json) == n
  }

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

  private def value(depth: Int): Gen[JValue] = {
    val leaf = Gen.oneOf(
      Gen.const(JNull), Gen.oneOf(true, false).map(JBool(_)), number.map(JNum(_)), text.map(JStr(_)))
    if (depth == 0) leaf
    else Gen.frequency(
      3 -> leaf,
      1 -> Gen.resize(5, Gen.listOf(value(depth - 1))).map(JArr(_)),
      1 -> Gen.resize(5, Gen.listOf(Gen.zip(text, value(depth - 1))))
        .map(fs => JObj(fs.distinctBy(_._1))),
    )
  }

  test("property: render equals the recursive renderer and Jackson reads the same tree back") {
    val prop = Prop.forAll(value(4)) { v =>
      val out = v.render
      out == oracle(v) && same(v, mapper.readTree(s"[$out]").get(0))
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
