package perfbench

import java.nio.file.{Path, Paths}

import org.apache.spark.sql.SparkSession

import repro.data.SmartCityData
import repro.ingest.{ChunkedUpload, CsvExport, CsvIngest}

/** Set-up: the dataset goes through the paper's upload path once, so that
  * requests time mining rather than the generator or a CSV re-parse.
  *
  *  1. generate it with `SmartCityData` (persisted, so step 2 times only
  *     the export);
  *  2. write the upload files with `CsvExport.write`;
  *  3. pass `data.csv` through `ChunkedUpload.split` and `reassemble`;
  *  4. read the files back with `CsvIngest.read`, validation on;
  *  5. persist the ingested `data` and `locations` and count them (inside
  *     step 4's span).
  *
  * Between steps 2 and 3 the seed relabels and shuffles the files
  * ([[Upload.scramble]]); that is input preparation, so it is not timed.
  */
object Setup {

  val Steps: Seq[String] = Seq("data.generate", "ingest.export", "ingest.chunk", "ingest.read_validate")

  def once(spark: SparkSession, w: Workload, seed: Long, dir: Path, tracer: Tracer): Ingested =
    tracer.root(dir.getFileName.toString, "setup") {
      val generated = tracer.span("data.generate") {
        val ds = SmartCityData.byName(spark, w.dataset, w.sf)
        ds.data.persist().count()
        ds.locations.persist().count()
        ds
      }
      val (dataCsv, locationCsv, attributeCsv) =
        tracer.span("ingest.export")(CsvExport.write(generated, dir.resolve("export").toString))
      generated.data.unpersist(true)
      generated.locations.unpersist(true)
      val original = Upload.scramble(Paths.get(dataCsv), Paths.get(locationCsv), seed)
      val uploaded = tracer.span("ingest.chunk") {
        val chunks = ChunkedUpload.split(dataCsv, dir.resolve("chunks").toString)
        ChunkedUpload.reassemble(chunks, dir.resolve("upload").resolve("data.csv").toString)
      }
      tracer.counted("ingest.read_validate") {
        val ds = CsvIngest.read(spark, w.dataset, uploaded, locationCsv, attributeCsv, validate = true)
        val data = ds.data.persist()
        val records = data.count()
        val locations = ds.locations.persist()
        locations.count()
        Ingested(data, locations, original, records)
      }(in => Map("records" -> in.records.toDouble))
    }
}
