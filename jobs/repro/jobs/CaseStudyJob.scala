package repro.jobs

import repro.core.CapParams
import repro.data.SmartCityData
import repro.exp.T5Cases

/** T5 entrypoint: the three demonstration case studies.
  *
  * {{{
  * spark-submit --class repro.jobs.CaseStudyJob repro.jar \
  *   [--santander-sf 0.05] [--china-sf 0.005]
  * }}}
  */
object CaseStudyJob {
  def main(args: Array[String]): Unit = {
    val a = JobUtil.parse(args)
    val spark = JobUtil.session("T5-case-studies")
    try {
      val stCaps = T5Cases.santanderCaps(spark, a.dbl("santander-sf", 0.05),
        CapParams(psi = 50, maxSensors = 4))
      println(T5Cases.patternTable(stCaps, "T5a Santander attribute patterns"))

      val china = SmartCityData.china6(spark, a.dbl("china-sf", 0.005))
      val chinaParams = CapParams(etaKm = 450.0, psi = 20, mu = 3, maxSensors = 3)
      val chinaCaps = repro.core.Miscela.mine(spark, china.data, china.locations, chinaParams)
      println(T5Cases.chinaTable(T5Cases.classifyChina(spark, china, chinaCaps),
        "T5b China east-west vs north-south"))

      val covid = T5Cases.covidBeforeAfter(spark, CapParams(etaKm = 10.0, psi = 20, mu = 4, maxSensors = 4))
      println(T5Cases.patternTable(covid.before, "T5c COVID-19 patterns BEFORE"))
      println(T5Cases.patternTable(covid.after, "T5c COVID-19 patterns AFTER"))
    } finally spark.stop()
  }
}
