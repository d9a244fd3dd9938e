package repro.exp

import org.apache.spark.sql.SparkSession

import repro.cache.CapCache
import repro.core.{CapParams, Miscela}
import repro.data.SmartCityDataset

/** T4 — the caching mechanism (Section 3.3): "If users specify the
  * parameters of CAPs stored in databases, we can immediately see CAPs
  * without processing MISCELA."
  *
  * We issue the same (dataset, parameters) request twice against a fresh
  * store: the first is a cold miss that runs MISCELA, the second a warm
  * hit served from the store. The reproduced shape: hit latency is a small
  * fraction of miss latency, and a changed parameter misses again.
  */
object T4Cache {

  final case class CacheRow(request: String, hit: Boolean, nCaps: Long, millis: Long)

  /** Plays a request sequence; each entry is (label, params). */
  def play(
      spark: SparkSession,
      ds: SmartCityDataset,
      cache: CapCache,
      requests: Seq[(String, CapParams)],
  ): Seq[CacheRow] =
    requests.map { case (label, params) =>
      // Time to the CAPs on the driver either way: a cold request mines and
      // persists, a warm one reads the store.
      val ((nCaps, hit), ms) = Tables.timed {
        val (caps, h) = cache.getOrCompute(spark, ds.name, params) {
          Miscela.mine(spark, ds.data, ds.locations, params)
        }
        (caps.size, h)
      }
      CacheRow(label, hit, nCaps, ms)
    }

  def table(rows: Seq[CacheRow], title: String): String =
    Tables.render(title, Seq("request", "cache hit", "#CAPs", "millis"),
      rows.map(r => Seq(r.request, r.hit.toString, r.nCaps.toString, r.millis.toString)))
}
