package repro.graph

import scala.util.Random

import org.apache.spark.sql.DataFrame

import repro.SparkSpec

class ConnectedComponentsSpec extends SparkSpec {

  private def vdf(ids: Seq[String]): DataFrame = {
    import spark.implicits._
    ids.toDF("id")
  }

  private def edf(edges: Seq[(String, String)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  private def components(ids: Seq[String], edges: Seq[(String, String)]): Map[String, String] =
    ConnectedComponents.run(spark, vdf(ids), edf(edges))
      .collect().map(r => r.getString(0) -> r.getString(1)).toMap

  /** Reference: union-find. */
  private def unionFind(ids: Seq[String], edges: Seq[(String, String)]): Map[String, Set[String]] = {
    val parent = scala.collection.mutable.Map(ids.map(i => i -> i): _*)
    def find(x: String): String = if (parent(x) == x) x else { val r = find(parent(x)); parent(x) = r; r }
    edges.foreach { case (a, b) => parent(find(a)) = find(b) }
    ids.groupBy(find).map { case (_, members) => (members.min, members.toSet) }
  }

  private def asSets(labels: Map[String, String]): Map[String, Set[String]] =
    labels.groupBy(_._2).map { case (_, m) => (m.keys.min, m.keySet) }

  test("isolated vertices are singleton components") {
    val got = components(Seq("a", "b", "c"), Nil)
    assert(got == Map("a" -> "a", "b" -> "b", "c" -> "c"))
  }

  test("one edge merges two vertices under the min label") {
    assert(components(Seq("a", "b"), Seq(("b", "a"))) == Map("a" -> "a", "b" -> "a"))
  }

  test("a chain collapses to its minimum id") {
    val ids = (0 until 8).map(i => s"v$i")
    val edges = (0 until 7).map(i => (s"v$i", s"v${i + 1}"))
    val got = components(ids, edges)
    assert(got.values.toSet == Set("v0"))
  }

  test("two separate triangles stay separate") {
    val got = components(
      Seq("a", "b", "c", "x", "y", "z"),
      Seq(("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"), ("z", "x")),
    )
    assert(asSets(got) == Map("a" -> Set("a", "b", "c"), "x" -> Set("x", "y", "z")))
  }

  test("direction of the edge list is ignored") {
    val g1 = components(Seq("a", "b", "c"), Seq(("c", "a"), ("b", "c")))
    assert(g1.values.toSet == Set("a"))
  }

  test("duplicate and self edges are harmless") {
    val got = components(Seq("a", "b"), Seq(("a", "b"), ("a", "b"), ("b", "a"), ("a", "a")))
    assert(got == Map("a" -> "a", "b" -> "a"))
  }

  test("vertices with no edge rows still appear in the labelling") {
    val got = components(Seq("a", "b", "lonely"), Seq(("a", "b")))
    assert(got("lonely") == "lonely")
  }

  // Label propagation needed one round per hop and gave up after 50;
  // union-find does not depend on the diameter.
  for (n <- Seq(60, 10000)) {
    test(s"a $n-vertex chain is one component labelled with its minimum id") {
      val ids = (0 until n).map(i => f"v$i%05d")
      // In random order and direction, so the label cannot follow the order.
      val r = new Random(n)
      val edges = r.shuffle((1 until n).map(i => if (r.nextBoolean()) (ids(i), ids(i - 1)) else (ids(i - 1), ids(i))))
      val got = components(ids, edges)
      assert(got.size == n && got.values.toSet == Set("v00000"))
    }
  }

  for (seed <- 1 to 8) {
    test(s"random graph matches union-find (seed $seed)") {
      val r = new Random(seed)
      val n = 20 + r.nextInt(20)
      val ids = (0 until n).map(i => f"v$i%03d")
      val edges = (0 until n).flatMap { _ =>
        if (r.nextDouble() < 0.7) Some((ids(r.nextInt(n)), ids(r.nextInt(n)))) else None
      }
      assert(asSets(components(ids, edges)) == unionFind(ids, edges))
    }
  }

  for (seed <- 9 to 11) {
    test(s"random dense graph matches union-find (seed $seed)") {
      val r = new Random(seed)
      val n = 15
      val ids = (0 until n).map(i => f"v$i%03d")
      val edges = for {
        i <- 0 until n; j <- (i + 1) until n
        if r.nextDouble() < 0.3
      } yield (ids(i), ids(j))
      assert(asSets(components(ids, edges)) == unionFind(ids, edges))
    }
  }
}
