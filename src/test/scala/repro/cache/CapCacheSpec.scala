package repro.cache

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._

import repro.SparkSpec
import repro.core.{Cap, CapParams, CapTable, CapTableSpec, JoinedOrder, TinyWorld}
import repro.viz.JsonExport

/** Entries as they were written before the CAP table: the key material
  * without a layout tag, then each CAP's attributes, sensors and support,
  * every string length-prefixed.
  */
private object OldLayout {
  def entry(dataset: String, params: CapParams, caps: Seq[Cap]): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out = new DataOutputStream(bytes)
    def strings(ss: Seq[String]): Unit = {
      out.writeInt(ss.size)
      ss.foreach { s =>
        val b = s.getBytes(UTF_8)
        out.writeInt(b.length)
        out.write(b)
      }
    }
    strings(Seq(s"$dataset|${params.cacheKey}"))
    out.writeInt(caps.length)
    caps.foreach { c =>
      strings(c.attributes)
      strings(c.sensors)
      out.writeLong(c.support)
    }
    bytes.toByteArray
  }
}

class CapCacheSpec extends SparkSpec {

  private def newCache(): (CapCache, String) = {
    val dir = Files.createTempDirectory("capcache-spec").toString
    (new CapCache(dir), dir)
  }

  private def someTable(n: Int): CapTable =
    CapTable((0 until n).map(i => Cap(Seq("a", "b"), Seq(s"s$i", s"s${i + 1}"), 10L + i)))

  private def someCaps(n: Int): org.apache.spark.sql.Dataset[Cap] = {
    import spark.implicits._
    someTable(n).toDS()
  }

  /** The names directly under the store root. */
  private def entries(dir: String): Seq[String] = {
    val list = Files.list(Paths.get(dir))
    try list.toArray.toSeq.map(_.toString) finally list.close()
  }

  private val p = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 10)

  test("empty cache misses") {
    val (cache, _) = newCache()
    assert(!cache.contains("santander", p))
    assert(cache.get(spark, "santander", p).isEmpty)
  }

  test("put then get round-trips the CAP set") {
    import spark.implicits._
    val (cache, _) = newCache()
    val odd = Seq(",", "|", "\"", "\t", "\n", "a,b|c\"d\te\nf", "Überwachung 温度 🌡", "")
    val caps = someCaps(5).collect().toSeq ++ Seq(
      Cap(odd, odd.reverse, 0L),
      Cap(Seq(""), Seq("", "s0"), Long.MaxValue),
      Cap(Seq("temperature", "湿度"), Seq("ñ-1", "s\u0000x"), 7L),
    )
    cache.put("santander", p, caps.toDS())
    assert(cache.contains("santander", p))
    val got = cache.get(spark, "santander", p).get.collect()
    assert(got.sortBy(_.toString).toSeq == caps.sortBy(_.toString))
  }

  test("different parameters are different entries") {
    val (cache, _) = newCache()
    cache.put("santander", p, someCaps(2))
    assert(!cache.contains("santander", p.copy(psi = 11)))
    assert(!cache.contains("santander", p.copy(epsilon = 1.5)))
    assert(!cache.contains("santander", p.copy(signPolicy = repro.core.SignPolicy.AnySign)))
    assert(!cache.contains("china6", p))
  }

  test("a result stored under epsilon = 0 is a miss for epsilon = 1e-7") {
    val (cache, _) = newCache()
    val exact = p.copy(epsilon = 0.0)
    cache.put("santander", exact, someCaps(2))
    assert(cache.contains("santander", exact))
    assert(!cache.contains("santander", exact.copy(epsilon = 1e-7)))
    assert(cache.get(spark, "santander", exact.copy(epsilon = 1e-7)).isEmpty)
  }

  test("getOrCompute: second identical request is a hit and skips compute") {
    val (cache, _) = newCache()
    var computions = 0
    def compute() = { computions += 1; someTable(3) }
    val (r1, hit1) = cache.getOrCompute(spark, "santander", p)(compute())
    assert(!hit1 && r1.size == 3 && computions == 1)
    val (r2, hit2) = cache.getOrCompute(spark, "santander", p)(compute())
    assert(hit2 && r2 == r1 && computions == 1)
    val (_, hit3) = cache.getOrCompute(spark, "santander", p.copy(mu = 2))(compute())
    assert(!hit3 && computions == 2)
  }

  test("entries survive a new CapCache instance over the same directory") {
    val (cache, dir) = newCache()
    cache.put("covid19", p, someCaps(1))
    val reopened = new CapCache(dir)
    assert(reopened.contains("covid19", p))
    assert(reopened.get(spark, "covid19", p).get.count() == 1)
  }

  test("put overwrites an existing entry") {
    val (cache, _) = newCache()
    cache.put("x", p, someCaps(2))
    cache.put("x", p, someCaps(7))
    assert(cache.get(spark, "x", p).get.count() == 7)
  }

  test("an empty CAP result is cached too (a negative result is a result)") {
    val (cache, _) = newCache()
    cache.put("x", p, someCaps(0))
    assert(cache.contains("x", p))
    assert(cache.get(spark, "x", p).get.count() == 0)
  }

  test("cacheKey covers every parameter") {
    val keys = Seq(
      p, p.copy(epsilon = 2.0), p.copy(etaKm = 1.0), p.copy(mu = 2), p.copy(psi = 11),
      p.copy(delta = 0.5), p.copy(signPolicy = repro.core.SignPolicy.AnySign),
      p.copy(maxSensors = 4), p.copy(allowSingleAttribute = true),
    ).map(_.cacheKey)
    assert(keys.distinct.size == keys.size)
  }

  test("a put whose Dataset throws leaves the previous result, or a miss") {
    import spark.implicits._
    val (cache, dir) = newCache()
    val failing = someCaps(3).map(c => if (c.support >= 0) throw new IllegalStateException("mining failed") else c)
    intercept[Exception](cache.put("x", p, failing))
    assert(!cache.contains("x", p) && cache.get(spark, "x", p).isEmpty)
    cache.put("x", p, someCaps(2))
    intercept[Exception](cache.put("x", p, failing))
    assert(cache.get(spark, "x", p).get.count() == 2)
    val (served, hit) = cache.getOrCompute(spark, "x", p)(someTable(9))
    assert(hit && served.size == 2)
    assert(entries(dir).size == 1, "a failed put left its staging directory behind")
  }

  test("two concurrent identical puts leave one readable entry") {
    val (cache, dir) = newCache()
    (1 to 3).foreach { _ =>
      val puts = Seq.fill(2)(Future(cache.put("x", p, someCaps(4))))
      puts.foreach(Await.result(_, 2.minutes))
      assert(cache.get(spark, "x", p).get.count() == 4)
      assert(entries(dir).size == 1)
    }
  }

  test("an entry file holding other key material is a miss, as on a hash collision") {
    val (cache, dir) = newCache()
    cache.put("a", p, someCaps(2))
    val entryA = entries(dir).head
    cache.put("b", p, someCaps(3))
    val entryB = entries(dir).filterNot(_ == entryA).head
    Files.copy(Paths.get(entryA), Paths.get(entryB), java.nio.file.StandardCopyOption.REPLACE_EXISTING)
    assert(!cache.contains("b", p) && cache.get(spark, "b", p).isEmpty)
    assert(cache.get(spark, "a", p).get.count() == 2)
  }

  test("a reader never sees a miss while an entry is replaced") {
    val (cache, _) = newCache()
    cache.put("x", p, someCaps(500))
    val writer = Future((1 to 50).foreach(_ => cache.put("x", p, someCaps(500))))
    var reads = 0
    while (!writer.isCompleted || reads < 50) {
      val got = cache.get(spark, "x", p)
      assert(got.isDefined, s"read $reads missed")
      assert(got.get.collect().length == 500)
      reads += 1
    }
    Await.result(writer, 2.minutes)
  }

  test("a miss evaluates the mining Dataset once") {
    import spark.implicits._
    val (cache, _) = newCache()
    var computions = 0
    val (caps, hit) = cache.getOrCompute(spark, "x", p) { computions += 1; someTable(7) }
    assert(!hit && caps.size == 7 && computions == 1)
    // A put collects its Dataset once.
    val evaluated = spark.sparkContext.longAccumulator("caps evaluated")
    cache.put("y", p, someCaps(7).map { c => evaluated.add(1); c })
    assert(evaluated.value == 7 && cache.get(spark, "y", p).get.count() == 7)
  }

  test("an empty, cut-off, old-layout or garbled entry file is a miss, and the next put replaces it") {
    val (cache, dir) = newCache()
    cache.put("x", p, someCaps(40))
    val entry = Paths.get(entries(dir).head)
    val whole = Files.readAllBytes(entry)
    // The name count, which follows the length-prefixed key material, set
    // to more names than the file could hold.
    val garbled = whole.clone()
    ByteBuffer.wrap(garbled).putInt(4 + ByteBuffer.wrap(whole).getInt(0), Int.MaxValue)
    Seq(
      "empty" -> Array.emptyByteArray,
      "cut to half its length" -> whole.take(whole.length / 2),
      "old layout" -> OldLayout.entry("x", p, someCaps(40).collect().toSeq),
      "garbled name count" -> garbled,
    ).foreach { case (what, bytes) =>
      Files.write(entry, bytes)
      assert(!cache.contains("x", p), what)
      assert(cache.get(spark, "x", p).isEmpty, what)
      val (served, hit) = cache.getOrCompute(spark, "x", p)(someTable(3))
      assert(!hit && served.size == 3, what)
      assert(cache.get(spark, "x", p).get.count() == 3, what)
      assert(entries(dir) == Seq(entry.toString), what)
      cache.put("x", p, someCaps(40))
    }
  }

  test("a miss and a hit both serve the CAPs in export order, and the same payload bytes") {
    val (cache, _) = newCache()
    val caps = CapTableSpec.randomCaps(new scala.util.Random(3), 400, CapTableSpec.trickyNames)
    val (missed, missHit) = cache.getOrCompute(spark, "x", p)(CapTable(caps))
    val (served, hit) = cache.getOrCompute(spark, "x", p)(CapTable(caps))
    assert(!missHit && hit)
    assert(JoinedOrder.holds(missed, caps))
    assert(served.toSeq == missed.toSeq)

    val locs = TinyWorld.locDf(spark, CapTableSpec.trickyNames.map(id => (id, "light", 43.46, -3.80)))
    val data = TinyWorld.dataDf(spark, Map(("s1", "light") -> Seq(Some(1.0), None, Some(3.0))))
    def payloads(caps: Seq[Cap]): Map[String, Seq[Byte]] = {
      val dir = Files.createTempDirectory("capcache-payloads")
      JsonExport.writeAll(dir.toString, caps, locs, data)
        .map(f => Paths.get(f).getFileName.toString -> Files.readAllBytes(Paths.get(f)).toSeq).toMap
    }
    val fromMiss = payloads(missed)
    assert(fromMiss.size == 5)
    assert(payloads(served) == fromMiss)
  }
}
