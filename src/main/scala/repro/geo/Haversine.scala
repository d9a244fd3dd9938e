package repro.geo

/** Great-circle distance on the WGS84 mean-radius sphere.
  *
  * MISCELA's distance threshold η compares sensor locations given as
  * (lat, lon) degrees; the haversine formula is the standard choice for
  * the city-to-country scales the paper covers (metres to ~1000 km),
  * where the spherical error (<0.5%) is far below sensor-placement noise.
  */
object Haversine {

  /** Mean Earth radius in kilometres. */
  val EarthRadiusKm: Double = 6371.0088

  /** Distance in kilometres between two (lat, lon) points in degrees. */
  def km(lat1: Double, lon1: Double, lat2: Double, lon2: Double): Double = {
    val dLat = math.toRadians(lat2 - lat1)
    val dLon = math.toRadians(lon2 - lon1)
    val a = math.pow(math.sin(dLat / 2), 2) +
      math.cos(math.toRadians(lat1)) * math.cos(math.toRadians(lat2)) *
        math.pow(math.sin(dLon / 2), 2)
    2 * EarthRadiusKm * math.asin(math.min(1.0, math.sqrt(a)))
  }
}
