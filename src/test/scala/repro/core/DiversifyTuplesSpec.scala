package repro.core

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.core.DiversifyTuples.EmbTuple
import repro.util.{Rng, VecOps}

class DiversifyTuplesSpec extends SparkSpec {

  private def mkTuples(n: Int, seed: Long, dim: Int = 8, tables: Int = 3): Vector[EmbTuple] = {
    val rng = new Rng(seed)
    (0 until n).toVector.map(i => EmbTuple(i.toLong, s"t${i % tables}", Array.fill(dim)(rng.nextGaussian())))
  }

  // ---------------- prune ----------------

  test("prune keeps input unchanged when already within budget") {
    val ts = mkTuples(10, 1)
    assert(DiversifyTuples.prune(ts, 10) eq ts)
  }

  test("prune returns exactly s tuples") {
    assert(DiversifyTuples.prune(mkTuples(100, 2), 30).size == 30)
  }

  test("prune keeps the tuples farthest from their table mean") {
    // Table mean sits at the origin-ish; a far outlier must survive.
    val base = (0 until 20).toVector.map(i => EmbTuple(i.toLong, "t", Array(0.0 + i * 1e-3, 1.0)))
    val outlier = EmbTuple(99L, "t", Array(5.0, -1.0))
    val kept = DiversifyTuples.prune(base :+ outlier, 5)
    assert(kept.exists(_.id == 99L))
  }

  test("prune is deterministic (tie-break by id)") {
    val ts = mkTuples(50, 3)
    assert(DiversifyTuples.prune(ts, 20).map(_.id) == DiversifyTuples.prune(ts, 20).map(_.id))
  }

  test("prune means are computed per table, not globally") {
    // Two tables with different centers; within-table outliers win over
    // tuples that are far from the global center but central in their table.
    val t1 = (0 until 10).toVector.map(i => EmbTuple(i.toLong, "a", Array(10.0, 10.0 + i * 1e-3)))
    val out1 = EmbTuple(50L, "a", Array(10.0, -10.0))
    val t2 = (0 until 10).toVector.map(i => EmbTuple(100L + i, "b", Array(-10.0, -10.0 - i * 1e-3)))
    val kept = DiversifyTuples.prune(t1 ++ Vector(out1) ++ t2, 1)
    assert(kept.head.id == 50L)
  }

  // ---------------- clustering / medoids ----------------

  test("clusterMedoids returns one representative per cluster") {
    val ts = mkTuples(40, 4)
    val ms = DiversifyTuples.clusterMedoids(ts, 8)
    assert(ms.size == 8)
    assert(ms.map(_.id).distinct.size == 8)
  }

  test("clusterMedoids caps at candidate count") {
    val ts = mkTuples(5, 5)
    assert(DiversifyTuples.clusterMedoids(ts, 20).size == 5)
  }

  test("clusterMedoids of empty input is empty") {
    assert(DiversifyTuples.clusterMedoids(Vector.empty, 3).isEmpty)
  }

  test("medoids of well-separated blobs come one from each blob") {
    val rng = new Rng(6)
    val blobs = Vector(Array(10.0, 0.0), Array(-10.0, 0.0), Array(0.0, 10.0))
    val ts = blobs.zipWithIndex.flatMap { case (c, bi) =>
      (0 until 10).map(i => EmbTuple((bi * 10 + i).toLong, "t",
        Array(c(0) + 0.1 * rng.nextGaussian(), c(1) + 0.1 * rng.nextGaussian())))
    }
    val ms = DiversifyTuples.clusterMedoids(ts, 3, VecOps.euclidean)
    assert(ms.map(_.id / 10).toSet == Set(0L, 1L, 2L))
  }

  // ---------------- rerank (Example 5 of the paper) ----------------

  test("rerank reproduces the paper's Example 5 ranking exactly") {
    // Distances from Fig 4. We encode them via a custom distance function
    // driven by ids rather than vectors.
    val d = Map(
      (1L, 0) -> 0.3, (1L, 1) -> 0.1, (1L, 2) -> 0.9,
      (2L, 0) -> 0.5, (2L, 1) -> 0.4, (2L, 2) -> 0.6,
      (3L, 0) -> 0.75, (3L, 1) -> 0.5, (3L, 2) -> 0.1,
      (4L, 0) -> 0.4, (4L, 1) -> 0.55, (4L, 2) -> 0.5,
      (5L, 0) -> 0.9, (5L, 1) -> 0.75, (5L, 2) -> 0.01,
      (6L, 0) -> 0.0, (6L, 1) -> 0.99, (6L, 2) -> 0.2,
    )
    val cands = (1L to 6L).toVector.map(i => EmbTuple(i, "t", Array(i.toDouble)))
    val query = Vector(Array(1000.0), Array(1001.0), Array(1002.0))
    def dist(a: Array[Double], b: Array[Double]): Double = {
      val (t, q) = if (a(0) < 100) (a(0).toLong, (b(0) - 1000).toInt) else (b(0).toLong, (a(0) - 1000).toInt)
      d((t, q))
    }
    val ranked = DiversifyTuples.rerank(cands, query, 6, dist)
    assert(ranked.map(_.id) == Vector(2L, 4L, 3L, 1L, 5L, 6L))
  }

  test("rerank takes only k") {
    val ts = mkTuples(20, 7)
    val q = Vector(Array.fill(8)(0.1))
    assert(DiversifyTuples.rerank(ts, q, 5).size == 5)
  }

  test("rerank requires query tuples") {
    val cands = mkTuples(3, 8)
    val driver = intercept[IllegalArgumentException](DiversifyTuples.rerank(cands, Nil, 2))
    val viaSpark = intercept[IllegalArgumentException](DiversifyTuples.sparkRerank(spark,
      DiversifyTuples.toDF(spark, cands), DiversifyTuples.toDF(spark, Nil), 2))
    Seq(driver, viaSpark).foreach(e => assert(e.getMessage.contains("rerank needs query tuples")))
  }

  test("run composes prune, cluster and rerank") {
    val ts = mkTuples(200, 9)
    val q = Vector.fill(5)(Array.fill(8)(0.0))
    val out = DiversifyTuples.run(ts, q, k = 10, p = 2, s = 100)
    assert(out.size == 10)
    assert(out.map(_.id).distinct.size == 10)
  }

  // ---------------- Spark dataflow equivalence + oracle ----------------

  test("sparkPrune selects the same ids as the driver prune") {
    val ts = mkTuples(120, 10)
    val driver = DiversifyTuples.prune(ts, 40).map(_.id).toSet
    val sparkIds = DiversifyTuples.fromDF(
      DiversifyTuples.sparkPrune(spark, DiversifyTuples.toDF(spark, ts), 40)).map(_.id).toSet
    assert(sparkIds == driver)
  }

  test("sparkRerank selects the same ids in the same order as the driver") {
    val cands = mkTuples(30, 11)
    val q = mkTuples(6, 12).map(_.vec)
    val driver = DiversifyTuples.rerank(cands, q, 8).map(_.id)
    val qDf = DiversifyTuples.toDF(spark, q.zipWithIndex.map { case (v, i) => EmbTuple(i.toLong, "q", v) })
    val ranked = DiversifyTuples.sparkRerank(spark, DiversifyTuples.toDF(spark, cands), qDf, 8)
    assert(ranked.columns.toSeq == Seq("id", "table", "vec", "rankScore", "tieScore", "rk"))
    val top = ranked.orderBy("rk").select("id", "rk").collect().toVector
    assert(top.map(_.getLong(0)) == driver)
    assert(top.map(_.getInt(1)) == (1 to 8))
  }

  test("oracle: rerank top-k matches DuckDB SQL over the distance table") {
    val cands = mkTuples(15, 13)
    val q = mkTuples(4, 14).map(_.vec)
    // Materialize the (cand, query, dist) table once, run the ranking in
    // Spark SQL and DuckDB, and diff.
    import spark.implicits._
    val rows = for {
      c <- cands
      (qv, qi) <- q.zipWithIndex
    } yield (c.id, qi, VecOps.cosineDist(c.vec, qv))
    val distDf = spark.createDataset(rows).toDF("cid", "qid", "d")
    val k = 6
    val sparkTop = distDf.groupBy("cid")
      .agg(org.apache.spark.sql.functions.min("d") as "rankScore",
           org.apache.spark.sql.functions.avg("d") as "tieScore")
      .orderBy(col("rankScore").desc, col("tieScore").desc, col("cid").asc)
      .limit(k)
      .select(col("cid"))
    Oracle.assertEquivalent(sparkTop,
      s"""SELECT cid FROM (
            SELECT cid, min(CAST(d AS DOUBLE)) AS r, avg(CAST(d AS DOUBLE)) AS t
            FROM dists GROUP BY cid)
          ORDER BY r DESC, t DESC, CAST(cid AS BIGINT) ASC LIMIT $k""",
      "dists" -> distDf.select(col("cid").cast("string") as "cid",
                               col("qid").cast("string") as "qid",
                               col("d").cast("string") as "d"))
  }

  test("oracle: sparkPrune matches DuckDB SQL of the per-table score") {
    val ts = mkTuples(30, 15, dim = 4) :+ EmbTuple(30L, "t0", Array.fill(4)(0.0))
    val s = 12
    import spark.implicits._
    val cells = spark.createDataset(for {
      t <- ts
      (x, pos) <- t.vec.zipWithIndex
    } yield (t.table, t.id.toString, pos.toString, x.toString)).toDF("tbl", "id", "pos", "x")
    Oracle.assertEquivalent(DiversifyTuples.sparkPrune(spark, DiversifyTuples.toDF(spark, ts), s).select("id"),
      s"""WITH c AS (
            SELECT tbl, CAST(id AS BIGINT) AS id, CAST(pos AS INTEGER) AS pos, CAST(x AS DOUBLE) AS x
            FROM cells),
          means AS (SELECT tbl, pos, avg(x) AS m FROM c GROUP BY tbl, pos),
          stats AS (
            SELECT c.id, sum(c.x * means.m) AS dot, sqrt(sum(c.x * c.x)) AS nx,
                   sqrt(sum(means.m * means.m)) AS nm
            FROM c JOIN means ON c.tbl = means.tbl AND c.pos = means.pos
            GROUP BY c.id)
          SELECT id FROM stats
          ORDER BY CASE WHEN nx * nm > 0 THEN 1 - dot / (nx * nm) ELSE 1 END DESC, id
          LIMIT $s""",
      "cells" -> cells)
  }

  test("sparkPrune and sparkRerank plans hold no Window operator") {
    val ts = mkTuples(40, 17)
    val df = DiversifyTuples.toDF(spark, ts)
    val qDf = DiversifyTuples.toDF(spark, mkTuples(3, 18))
    val plans = Seq(DiversifyTuples.sparkPrune(spark, df, 10), DiversifyTuples.sparkRerank(spark, df, qDf, 5))
      .map(_.queryExecution.executedPlan)
    object aqe extends AdaptiveSparkPlanHelper
    plans.foreach { p =>
      assert(aqe.collect(p) { case n if n.nodeName.contains("Window") => n.nodeName }.isEmpty, p.treeString)
    }
  }

  test("toDF/fromDF round-trips tuples") {
    val ts = mkTuples(12, 16)
    val back = DiversifyTuples.fromDF(DiversifyTuples.toDF(spark, ts)).sortBy(_.id)
    assert(back.map(_.id) == ts.map(_.id))
    back.zip(ts).foreach { case (a, b) =>
      assert(a.table == b.table && a.vec.toSeq == b.vec.toSeq)
    }
  }
}
