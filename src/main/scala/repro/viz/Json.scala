package repro.viz

/** Minimal JSON writer (no third-party JSON dependency is resolvable in
  * this sealed build), with correct string escaping. Values are modelled
  * as a tiny ADT; rendering is deterministic (object fields keep insertion
  * order) so exports are diffable.
  */
sealed trait JValue {

  /** The JSON text: one depth-first walk appending to one builder. */
  def render: String = {
    val out = new java.lang.StringBuilder
    Json.append(this, out)
    out.toString
  }
}
case object JNull extends JValue
final case class JBool(b: Boolean) extends JValue
final case class JNum(v: Double) extends JValue
final case class JStr(s: String) extends JValue
final case class JArr(xs: Seq[JValue]) extends JValue
final case class JObj(fields: Seq[(String, JValue)]) extends JValue

object Json {

  /** Appends the JSON text of `v` to `out`. Non-finite numbers become
    * `null` (JSON has no representation); integral numbers below 1e15 in
    * magnitude drop the fraction.
    */
  private[viz] def append(v: JValue, out: java.lang.StringBuilder): Unit = v match {
    case JNull    => out.append("null")
    case JBool(b) => out.append(b)
    case JNum(x)  =>
      if (x.isNaN || x.isInfinite) out.append("null")
      else if (x == math.floor(x) && math.abs(x) < 1e15) out.append(x.toLong)
      else out.append(java.lang.Double.toString(x))
    case JStr(s)  => appendQuoted(s, out)
    case JArr(xs) =>
      out.append('[')
      var first = true
      xs.foreach { x =>
        if (!first) out.append(',')
        first = false
        append(x, out)
      }
      out.append(']')
    case JObj(fields) =>
      out.append('{')
      var first = true
      fields.foreach { case (k, x) =>
        if (!first) out.append(',')
        first = false
        appendQuoted(k, out)
        out.append(':')
        append(x, out)
      }
      out.append('}')
  }

  /** Appends `s` as a JSON string literal, escaping quotes, backslashes
    * and control characters.
    */
  private def appendQuoted(s: String, out: java.lang.StringBuilder): Unit = {
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
    out.append('"')
  }

  def obj(fields: (String, JValue)*): JObj = JObj(fields)
  def arr(xs: JValue*): JArr = JArr(xs)
  def str(s: String): JStr = JStr(s)
  def num(v: Double): JNum = JNum(v)
}
