package repro.jobs

import java.nio.file.Files

import repro.cache.CapCache
import repro.core.Miscela
import repro.data.SmartCityData
import repro.viz.JsonExport

/** The MISCELA-V request path end to end: pick a dataset, set parameters,
  * consult the cache, mine if needed, and emit the visualization payloads
  * (caps.json, sensors.geojson, series-*.json) the front end renders.
  *
  * {{{
  * spark-submit --class repro.jobs.MineCapsJob repro.jar \
  *   [--dataset santander] [--sf 0.05] [--out /tmp/miscela-v] \
  *   [--cache-dir /tmp/capcache] [--epsilon 1.0] [--eta 0.5] [--mu 3] [--psi 50]
  * }}}
  */
object MineCapsJob {
  def main(args: Array[String]): Unit = {
    val a = JobUtil.parse(args)
    val spark = JobUtil.session("miscela-v-mine")
    try {
      val ds = SmartCityData.byName(spark, a.str("dataset", "santander"), a.dbl("sf", 0.05))
      val params = a.capParams(repro.core.CapParams(psi = 50, maxSensors = 4))
      val cache = new CapCache(a.str("cache-dir", Files.createTempDirectory("capcache").toString))
      // Persisted, the frames are shuffled by sensor and their registry is
      // collected once, for mining and for the payloads alike.
      ds.data.persist()
      ds.locations.persist()
      try {
        val (caps, hit) = cache.getOrCompute(spark, ds.name, params) {
          Miscela.mine(spark, ds.data, ds.locations, params)
        }
        val out = a.str("out", Files.createTempDirectory("miscela-v").toString)
        val files = JsonExport.writeAll(out, caps, ds.locations, ds.data)
        println(s"dataset=${ds.name} cacheHit=$hit caps=${caps.size}")
        files.foreach(f => println(s"wrote $f"))
      } finally {
        ds.data.unpersist()
        ds.locations.unpersist()
      }
    } finally spark.stop()
  }
}
