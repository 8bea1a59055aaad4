package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.util.VecOps

/** The two adapted diversity measures of §5.4.
  *
  * Average Diversity (Eq. 1): mean of (a) all query↔selected distances and
  * (b) all pairwise distances among the selected, normalized by n + k.
  * Min Diversity (Eq. 2): minimum over the same two distance sets.
  * Query-query distances are excluded (constant across methods).
  *
  * Driver implementations are the reference; Spark implementations express
  * the same computation as a DataFrame dataflow and are oracle-checked
  * against DuckDB in the test suite.
  */
object DiversityMetrics {

  type Dist = DiversifyTuples.Dist

  val cosine: Dist = VecOps.cosineDist
  val euclidean: Dist = VecOps.euclidean
  val manhattan: Dist = VecOps.manhattan

  /** Eq. (1). Requires at least one selected tuple. */
  def averageDiversity(query: Seq[Array[Double]], selected: Seq[Array[Double]],
                       dist: Dist = cosine): Double = {
    require(selected.nonEmpty, "no selected tuples")
    val n = query.size; val k = selected.size
    var cross = 0.0
    query.foreach(q => selected.foreach(t => cross += dist(q, t)))
    var within = 0.0
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) { within += dist(selected(i), selected(j)); j += 1 }
      i += 1
    }
    (cross + within) / (n + k)
  }

  /** Eq. (2). With k = 1 and no query tuples this is undefined; we require
    * a non-empty union of the two distance sets.
    */
  def minDiversity(query: Seq[Array[Double]], selected: Seq[Array[Double]],
                   dist: Dist = cosine): Double = {
    require(selected.nonEmpty, "no selected tuples")
    require(query.nonEmpty || selected.size >= 2, "Min Diversity needs at least one distance")
    var m = Double.MaxValue
    query.foreach(q => selected.foreach(t => m = math.min(m, dist(q, t))))
    var i = 0
    while (i < selected.size) {
      var j = i + 1
      while (j < selected.size) { m = math.min(m, dist(selected(i), selected(j))); j += 1 }
      i += 1
    }
    m
  }

  // -------------------------------------------------------------------
  // Spark dataflow versions over (id LONG, vec ARRAY<DOUBLE>) frames.
  // -------------------------------------------------------------------

  private val cosDistUdf = udf { (a: Seq[Double], b: Seq[Double]) =>
    VecOps.cosineDist(a.toArray, b.toArray)
  }

  /** All query↔selected plus selected-pairwise (i<j) distances as one frame
    * with columns (kind STRING, d DOUBLE).
    */
  def distancesDF(queryDf: DataFrame, selDf: DataFrame): DataFrame = {
    val q = queryDf.select(col("id") as "qid", col("vec") as "qvec")
    val s1 = selDf.select(col("id") as "id1", col("vec") as "vec1")
    val s2 = selDf.select(col("id") as "id2", col("vec") as "vec2")
    val cross = q.crossJoin(s1)
      .select(lit("cross") as "kind", cosDistUdf(col("qvec"), col("vec1")) as "d")
    val within = s1.crossJoin(s2)
      .where(col("id1") < col("id2"))
      .select(lit("within") as "kind", cosDistUdf(col("vec1"), col("vec2")) as "d")
    cross.unionByName(within)
  }

  /** Spark Average Diversity — same value as [[averageDiversity]]. */
  def sparkAverageDiversity(spark: SparkSession, queryDf: DataFrame, selDf: DataFrame): Double = {
    val n = queryDf.count(); val k = selDf.count()
    require(k > 0, "no selected tuples")
    val total = distancesDF(queryDf, selDf).agg(sum("d")).head.getDouble(0)
    total / (n + k)
  }

  /** Spark Min Diversity — same value as [[minDiversity]]. */
  def sparkMinDiversity(spark: SparkSession, queryDf: DataFrame, selDf: DataFrame): Double =
    distancesDF(queryDf, selDf).agg(min("d")).head.getDouble(0)
}
