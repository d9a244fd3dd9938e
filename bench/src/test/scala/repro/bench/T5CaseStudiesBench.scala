package repro.bench

import org.apache.spark.sql.functions.col

import repro.SparkSpec
import repro.core.{CapParams, Miscela}
import repro.data.SmartCityData
import repro.exp.T5Cases
import repro.geo.SpatialJoin
import repro.graph.ConnectedComponents

/** T5 — the three demonstration case studies (paper Section 4).
  *
  *  (a) Santander finds temperature↔trafficVolume and light↔temperature;
  *  (b) China: east-west separated cities correlate, north-south do not;
  *  (c) COVID-19: the correlation patterns before and after the outbreak
  *      differ (Figure 4's content).
  */
class T5CaseStudiesBench extends SparkSpec {

  // -----------------------------------------------------------------
  // (a) Santander
  // -----------------------------------------------------------------
  private lazy val stCaps =
    T5Cases.santanderCaps(spark, 0.05, CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 50, maxSensors = 4))

  test("T5a: print Santander patterns") {
    println(T5Cases.patternTable(stCaps, "T5a Santander attribute patterns (sf=0.05)"))
  }

  test("T5a: temperature-traffic and light-temperature patterns are found") {
    val pats = T5Cases.patterns(stCaps).map(_.attributes).toSet
    assert(pats.contains("temperature+trafficVolume"), s"missing temp+traffic in $pats")
    assert(pats.contains("light+temperature"), s"missing light+temp in $pats")
  }

  test("T5a: uncorrelated attributes (sound, humidity) appear in no pattern") {
    stCaps.foreach { c =>
      assert(!c.attributes.contains("sound") && !c.attributes.contains("humidity"),
        s"unexpected pattern $c")
    }
  }

  // -----------------------------------------------------------------
  // (b) China
  // -----------------------------------------------------------------
  private lazy val china = SmartCityData.china6(spark, 0.005)
  private lazy val chinaCaps = Miscela.mine(spark, china.data, china.locations,
    CapParams(epsilon = 1.0, etaKm = 450.0, psi = 20, mu = 3, maxSensors = 3))
  private lazy val chinaRows = T5Cases.classifyChina(spark, china, chinaCaps)

  test("T5b: print the China classification") {
    println(T5Cases.chinaTable(chinaRows, "T5b China east-west vs north-south (sf=0.005, eta=450km)"))
  }

  test("T5b: the eta graph connects cities in both directions (sanity)") {
    // If rows were spatially disconnected, the east-west finding would be
    // vacuous — verify the single component spans both row-0 and row-1.
    val edges = SpatialJoin.edges(spark, china.locations, 450.0)
    val comps = ConnectedComponents.run(spark, china.locations.select(col("id")), edges)
    val nComps = comps.select("component").distinct().count()
    assert(nComps == 1L, s"expected one connected component, got $nComps")
  }

  test("T5b: east-west separated cities share CAPs") {
    val sameRow = chinaRows.find(_.kind.contains("same row")).get.nCaps
    assert(sameRow > 0, "no multi-city east-west CAPs found")
  }

  test("T5b: north-south close cities share no CAPs despite being connected") {
    val crossRow = chinaRows.find(_.kind.contains("cross row")).get.nCaps
    assert(crossRow == 0, s"found $crossRow cross-row CAPs — wind-corridor structure broken")
  }

  // -----------------------------------------------------------------
  // (c) COVID-19
  // -----------------------------------------------------------------
  private lazy val covid = T5Cases.covidBeforeAfter(spark,
    CapParams(epsilon = 1.0, etaKm = 10.0, psi = 20, mu = 4, maxSensors = 4))

  test("T5c: print before/after patterns") {
    println(T5Cases.patternTable(covid.before, "T5c COVID-19 patterns BEFORE the outbreak"))
    println(T5Cases.patternTable(covid.after, "T5c COVID-19 patterns AFTER the outbreak"))
  }

  test("T5c: before the outbreak, traffic pollutants (NO2, CO) correlate") {
    assert(covid.before.exists(c => c.attributes.contains("NO2") && c.attributes.contains("CO")),
      s"missing NO2+CO pattern before: ${T5Cases.patterns(covid.before)}")
  }

  test("T5c: before the outbreak, PM2.5 and O3 are uncorrelated") {
    assert(!covid.before.exists(c => c.attributes.contains("PM2.5") && c.attributes.contains("O3")))
  }

  test("T5c: after the outbreak, PM2.5 and O3 correlate") {
    assert(covid.after.exists(c => c.attributes.contains("PM2.5") && c.attributes.contains("O3")),
      s"missing PM2.5+O3 pattern after: ${T5Cases.patterns(covid.after)}")
  }

  test("T5c: after the outbreak, the traffic patterns are gone") {
    assert(!covid.after.exists(c => c.attributes.contains("NO2") || c.attributes.contains("CO")))
  }

  test("T5c: the pattern sets before and after genuinely differ (Figure 4)") {
    val before = T5Cases.patterns(covid.before).map(_.attributes).toSet
    val after = T5Cases.patterns(covid.after).map(_.attributes).toSet
    assert(before.nonEmpty && after.nonEmpty && before != after)
  }
}
