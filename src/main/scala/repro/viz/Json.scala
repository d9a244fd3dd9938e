package repro.viz

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}

/** Minimal JSON writer (no third-party JSON dependency is resolvable in
  * this sealed build), with correct string escaping. Values are modelled
  * as a tiny ADT; rendering is deterministic (object fields keep insertion
  * order) so exports are diffable.
  */
sealed trait JValue {

  /** The JSON text: one depth-first walk writing one [[JsonOut]]. A lone
    * surrogate, which UTF-8 cannot encode, reads back as `?`, as in the
    * payload files.
    */
  def render: String = {
    val out = new JsonOut
    Json.write(this, out)
    out.text
  }
}
case object JNull extends JValue
final case class JBool(b: Boolean) extends JValue
final case class JNum(v: Double) extends JValue
final case class JStr(s: String) extends JValue
final case class JArr(xs: Seq[JValue]) extends JValue
final case class JObj(fields: Seq[(String, JValue)]) extends JValue

/** JSON text written beforehand by a [[JsonOut]] writer; renders as is. */
final case class JRaw(json: String) extends JValue

/** UTF-8 JSON text in one growable byte buffer: the writer behind every
  * payload, whether it comes from a [[JValue]] tree or straight from a
  * CAP table.
  */
private[viz] final class JsonOut {
  private var buf = new Array[Byte](1 << 13)
  private var size = 0

  private def room(n: Int): Unit =
    if (size + n > buf.length) buf = java.util.Arrays.copyOf(buf, math.max(2 * buf.length, size + n))

  def byte(c: Char): JsonOut = {
    room(1)
    buf(size) = c.toByte
    size += 1
    this
  }

  /** Appends `s`, which holds only ASCII characters (keys, punctuation). */
  def ascii(s: String): JsonOut = {
    room(s.length)
    var i = 0
    while (i < s.length) { buf(size + i) = s.charAt(i).toByte; i += 1 }
    size += s.length
    this
  }

  def bytes(b: Array[Byte]): JsonOut = {
    room(b.length)
    System.arraycopy(b, 0, buf, size, b.length)
    size += b.length
    this
  }

  /** Appends `x` in decimal. */
  def long(x: Long): JsonOut =
    if (x < 0) ascii(java.lang.Long.toString(x))
    else {
      var digits = 1
      var rest = x / 10
      while (rest > 0) { digits += 1; rest /= 10 }
      room(digits)
      var v = x
      var i = size + digits - 1
      while (i >= size) { buf(i) = ('0' + v % 10).toByte; v /= 10; i -= 1 }
      size += digits
      this
    }

  /** Appends `x` as a JSON number. Non-finite numbers become `null` (JSON
    * has no representation); integral numbers below 1e15 in magnitude drop
    * the fraction.
    */
  def num(x: Double): JsonOut =
    if (x.isNaN || x.isInfinite) ascii("null")
    else if (x == math.floor(x) && math.abs(x) < 1e15) long(x.toLong)
    else ascii(java.lang.Double.toString(x))

  /** Appends `s` as a JSON string literal. */
  def str(s: String): JsonOut = bytes(Json.quoted(s))

  def text: String = new String(buf, 0, size, UTF_8)

  def writeTo(path: Path): Unit = {
    val file = Files.newOutputStream(path)
    try file.write(buf, 0, size) finally file.close()
  }
}

object Json {

  /** Writes the JSON text of `v` to `out`. */
  private[viz] def write(v: JValue, out: JsonOut): Unit = v match {
    case JNull     => out.ascii("null")
    case JBool(b)  => out.ascii(if (b) "true" else "false")
    case JNum(x)   => out.num(x)
    case JStr(s)   => out.str(s)
    case JRaw(raw) => out.bytes(raw.getBytes(UTF_8))
    case JArr(xs)  =>
      out.byte('[')
      var first = true
      xs.foreach { x =>
        if (!first) out.byte(',')
        first = false
        write(x, out)
      }
      out.byte(']')
    case JObj(fields) =>
      out.byte('{')
      var first = true
      fields.foreach { case (k, x) =>
        if (!first) out.byte(',')
        first = false
        out.str(k).byte(':')
        write(x, out)
      }
      out.byte('}')
  }

  /** The UTF-8 bytes of `s` as a JSON string literal: quotes, backslashes
    * and control characters escaped.
    */
  private[viz] def quoted(s: String): Array[Byte] = {
    val out = new java.lang.StringBuilder(s.length + 2)
    out.append('"')
    var i = 0
    while (i < s.length) {
      s.charAt(i) match {
        case '"'          => out.append("\\\"")
        case '\\'         => out.append("\\\\")
        case '\b'         => out.append("\\b")
        case '\f'         => out.append("\\f")
        case '\n'         => out.append("\\n")
        case '\r'         => out.append("\\r")
        case '\t'         => out.append("\\t")
        case c if c < ' ' => out.append(f"\\u${c.toInt}%04x")
        case c            => out.append(c)
      }
      i += 1
    }
    out.append('"').toString.getBytes(UTF_8)
  }

  def obj(fields: (String, JValue)*): JObj = JObj(fields)
  def arr(xs: JValue*): JArr = JArr(xs)
  def str(s: String): JStr = JStr(s)
  def num(v: Double): JNum = JNum(v)
}
