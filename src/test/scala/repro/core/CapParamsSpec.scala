package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CapParamsSpec extends AnyFunSuite {

  test("defaults are valid") {
    val p = CapParams()
    assert(p.epsilon == 1.0 && p.etaKm == 0.5 && p.mu == 3 && p.psi == 10)
  }

  test("each invalid parameter is rejected with a clear message") {
    intercept[IllegalArgumentException] { CapParams(epsilon = -0.1) }
    intercept[IllegalArgumentException] { CapParams(etaKm = 0.0) }
    intercept[IllegalArgumentException] { CapParams(etaKm = -1.0) }
    intercept[IllegalArgumentException] { CapParams(mu = 0) }
    intercept[IllegalArgumentException] { CapParams(psi = 0) }
    intercept[IllegalArgumentException] { CapParams(delta = -0.5) }
    intercept[IllegalArgumentException] { CapParams(maxSensors = 1) }
  }

  test("boundary values are accepted") {
    CapParams(epsilon = 0.0, mu = 1, psi = 1, delta = 0.0, maxSensors = 2)
  }

  test("cacheKey is stable and human-inspectable") {
    val k = CapParams().cacheKey
    assert(k == CapParams().cacheKey)
    assert(k.contains("eps=1.0|") && k.contains("eta=0.5|") && k.contains("psi=10"))
  }

  test("cacheKey tells apart parameters that differ below the sixth decimal") {
    assert(CapParams(epsilon = 0.0).cacheKey != CapParams(epsilon = 1e-7).cacheKey)
    assert(CapParams(etaKm = 0.5).cacheKey != CapParams(etaKm = 0.5 + 1e-9).cacheKey)
    assert(CapParams(delta = 0.0).cacheKey != CapParams(delta = 1e-7).cacheKey)
  }

  test("SignPolicy.fromString parses both policies case-insensitively") {
    assert(SignPolicy.fromString("SameSign") == SignPolicy.SameSign)
    assert(SignPolicy.fromString("same") == SignPolicy.SameSign)
    assert(SignPolicy.fromString("ANYSIGN") == SignPolicy.AnySign)
    assert(SignPolicy.fromString("any") == SignPolicy.AnySign)
    intercept[IllegalArgumentException] { SignPolicy.fromString("sideways") }
  }
}
