package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

class BitsSpec extends AnyFunSuite {

  test("words rounds up to 64-bit boundaries") {
    assert(Bits.words(0) == 0)
    assert(Bits.words(1) == 1)
    assert(Bits.words(64) == 1)
    assert(Bits.words(65) == 2)
    assert(Bits.words(128) == 2)
    assert(Bits.words(129) == 3)
  }

  test("set/get round-trips across word boundaries") {
    val a = Bits.empty(130)
    Seq(0, 1, 63, 64, 65, 127, 128, 129).foreach(Bits.set(a, _))
    Seq(0, 1, 63, 64, 65, 127, 128, 129).foreach(i => assert(Bits.get(a, i), s"bit $i"))
    Seq(2, 62, 66, 100, 126).foreach(i => assert(!Bits.get(a, i), s"bit $i"))
  }

  test("empty has cardinality 0; full has cardinality nBits") {
    assert(Bits.cardinality(Bits.empty(100)) == 0)
    Seq(1, 64, 100).foreach { n =>
      val a = Bits.empty(n)
      (0 until n).foreach(Bits.set(a, _))
      assert(Bits.cardinality(a) == n)
    }
  }

  test("and is set intersection") {
    val a = Bits.empty(70); Seq(1, 5, 64, 69).foreach(Bits.set(a, _))
    val b = Bits.empty(70); Seq(5, 64, 68).foreach(Bits.set(b, _))
    assert(Bits.toSeq(Bits.and(a, b)) == Seq(5, 64))
  }

  test("and rejects width mismatch") {
    intercept[IllegalArgumentException] { Bits.and(Bits.empty(64), Bits.empty(65)) }
  }

  test("toSeq returns ascending set bits") {
    val a = Bits.empty(200)
    Seq(199, 0, 77).foreach(Bits.set(a, _))
    assert(Bits.toSeq(a) == Seq(0, 77, 199))
  }

  for (seed <- 1 to 5) {
    test(s"property: and/cardinality agree with Set semantics (seed $seed)") {
      val r = new Random(seed)
      val n = 1 + r.nextInt(300)
      val xs = (0 until n).filter(_ => r.nextBoolean()).toSet
      val ys = (0 until n).filter(_ => r.nextBoolean()).toSet
      val a = Bits.empty(n); xs.foreach(Bits.set(a, _))
      val b = Bits.empty(n); ys.foreach(Bits.set(b, _))
      assert(Bits.cardinality(a) == xs.size)
      assert(Bits.toSeq(Bits.and(a, b)).toSet == xs.intersect(ys))
      assert(Bits.cardinality(Bits.and(a, b)) == xs.intersect(ys).size)
    }
  }

  for (seed <- 1 to 5) {
    test(s"property: andCount is the AND's popcount, or a count below atLeast (seed $seed)") {
      val r = new Random(seed)
      (1 to 50).foreach { _ =>
        val n = 1 + r.nextInt(800)
        // Dense inputs too, so the bound 64 x words left is tight.
        val density = Seq(0.05, 0.5, 0.95, 1.0)(r.nextInt(4))
        val a = Bits.empty(n); val b = Bits.empty(n)
        (0 until n).foreach { i =>
          if (r.nextDouble() < density) Bits.set(a, i)
          if (r.nextDouble() < density) Bits.set(b, i)
        }
        val and = Bits.and(a, b)
        val want = Bits.cardinality(and)
        val atLeast = r.nextInt(n + 2)
        val out = Bits.empty(n)
        val got = Bits.andCount(a, b, out, atLeast)
        if (want >= atLeast) assert(got == want && out.sameElements(and), s"n=$n atLeast=$atLeast")
        else assert(got < atLeast, s"n=$n atLeast=$atLeast: $got")
      }
    }
  }
}
