package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.IntegerType
import repro.cluster.Hac
import repro.util.VecOps

/** DUST tuple diversification — Algorithm 2 (§5).
  *
  * 1. Prune: rank every lake tuple by its distance from its own table's mean
  *    embedding and keep the global top-s (§5.1).
  * 2. Cluster the survivors into k·p clusters (UPGMA) and take each
  *    cluster's medoid as a candidate (§5.2).
  * 3. Re-rank candidates by their minimum distance to the query tuples,
  *    descending, tie-broken by average distance (§5.3, Example 5);
  *    return the top k.
  *
  * The driver-side functions are Algorithm 2 as `Dust.run` executes it (and
  * what the efficiency experiments time, matching the paper's single-node
  * runs). `sparkPrune` / `sparkRerank` run steps 1 and 3 over
  * `(id, table, vec)` frames with the same scoring helpers, so they select
  * the same ids; they are kept as benchmarked, DuckDB-checked dataflows, not
  * as a second pipeline.
  */
object DiversifyTuples {

  /** A tuple in embedding space. */
  final case class EmbTuple(id: Long, table: String, vec: Array[Double])

  type Dist = (Array[Double], Array[Double]) => Double

  // ------------------------------------------------------------------
  // Driver core
  // ------------------------------------------------------------------

  /** §5.1 score of each tuple of one table: its distance from the table's
    * mean embedding, the mean summed in the order given.
    */
  private def tableScores(ts: Seq[EmbTuple], dist: Dist): Seq[(EmbTuple, Double)] = {
    val mean = VecOps.mean(ts.map(_.vec))
    ts.map(t => (t, dist(mean, t.vec)))
  }

  /** §5.1 — keep the global top-s tuples by distance from their table mean.
    * Deterministic: ties broken by ascending id.
    */
  def prune(tuples: Vector[EmbTuple], s: Int, dist: Dist = VecOps.cosineDist): Vector[EmbTuple] = {
    if (tuples.size <= s) return tuples
    tuples.groupBy(_.table).values
      .flatMap(tableScores(_, dist))
      .toVector
      .sortBy { case (t, d) => (-d, t.id) }
      .take(s)
      .map(_._1)
  }

  /** §5.2 — cluster into `nClusters` and return each cluster's medoid. */
  def clusterMedoids(cands: Vector[EmbTuple], nClusters: Int,
                     dist: Dist = VecOps.cosineDist): Vector[EmbTuple] = {
    if (cands.isEmpty) return cands
    val m = math.min(nClusters, cands.size)
    val labels = Hac.clusterLabels(cands.map(_.vec), m, dist)
    cands.indices
      .groupBy(labels(_))
      .toVector
      .sortBy(_._1)
      .map { case (_, members) =>
        val vs = members.map(cands(_).vec).toIndexedSeq
        cands(members(VecOps.medoidIndex(vs, dist)))
      }
  }

  /** §5.3 key of one candidate: (min, mean) distance to the query tuples,
    * the mean summed in query order.
    */
  private def queryKey(vec: Array[Double], query: Seq[Array[Double]], dist: Dist): (Double, Double) = {
    val ds = query.map(q => dist(vec, q))
    (ds.min, ds.sum / ds.size)
  }

  /** §5.3 — rank by (min distance to query desc, avg distance desc, id asc). */
  def rerank(cands: Vector[EmbTuple], query: Seq[Array[Double]], k: Int,
             dist: Dist = VecOps.cosineDist): Vector[EmbTuple] = {
    require(query.nonEmpty, "rerank needs query tuples")
    cands
      .map(t => (t, queryKey(t.vec, query, dist)))
      .sortBy { case (t, (mn, avg)) => (-mn, -avg, t.id) }
      .take(k)
      .map(_._1)
  }

  /** Full Algorithm 2 on the driver. */
  def run(tuples: Vector[EmbTuple], query: Seq[Array[Double]], k: Int,
          p: Int = 2, s: Int = 2500, dist: Dist = VecOps.cosineDist): Vector[EmbTuple] = {
    val pruned = prune(tuples, s, dist)
    val cands = clusterMedoids(pruned, k * p, dist)
    rerank(cands, query, k, dist)
  }

  // ------------------------------------------------------------------
  // Spark dataflow versions. Frames carry (id LONG, table STRING, vec ARRAY<DOUBLE>).
  // ------------------------------------------------------------------

  def toDF(spark: SparkSession, tuples: Seq[EmbTuple]): DataFrame = {
    import spark.implicits._
    spark.createDataset(tuples.map(t => (t.id, t.table, t.vec.toSeq))).toDF("id", "table", "vec")
  }

  def fromDF(df: DataFrame): Vector[EmbTuple] =
    df.select("id", "table", "vec").collect().toVector.map { r =>
      EmbTuple(r.getLong(0), r.getString(1), r.getSeq[Double](2).toArray)
    }

  /** §5.1 as a dataflow: [[tableScores]] over each table's tuples in id
    * order, then the global top-s. Selects the same ids as [[prune]].
    */
  def sparkPrune(spark: SparkSession, tuplesDf: DataFrame, s: Int): DataFrame = {
    import spark.implicits._
    tuplesDf.select("id", "table", "vec").as[EmbTuple]
      .groupByKey(_.table)
      .flatMapGroups { (_, ts) =>
        tableScores(ts.toVector.sortBy(_.id), VecOps.cosineDist).map { case (t, d) => (t.id, t.table, t.vec, d) }
      }
      .toDF("id", "table", "vec", "score")
      .orderBy(col("score").desc, col("id").asc)
      .limit(s)
      .select("id", "table", "vec")
  }

  /** §5.3 as a dataflow: [[queryKey]] of each candidate against the query
    * vectors (collected in id order), then the top-k with `rk` = 1..k.
    * Selects the same ids in the same order as [[rerank]].
    */
  def sparkRerank(spark: SparkSession, candDf: DataFrame, queryDf: DataFrame, k: Int): DataFrame = {
    import spark.implicits._
    val query = fromDF(queryDf.orderBy("id")).map(_.vec)
    require(query.nonEmpty, "rerank needs query tuples")
    val top = candDf.select("id", "table", "vec").as[EmbTuple]
      .map { t =>
        val (mn, avg) = queryKey(t.vec, query, VecOps.cosineDist)
        (t.id, t.table, t.vec, mn, avg)
      }
      .toDF("id", "table", "vec", "rankScore", "tieScore")
      .orderBy(col("rankScore").desc, col("tieScore").desc, col("id").asc)
      .limit(k)
    val ranked = top.rdd.zipWithIndex.map { case (r, i) => Row.fromSeq(r.toSeq :+ (i + 1).toInt) }
    spark.createDataFrame(ranked, top.schema.add("rk", IntegerType, nullable = false))
  }
}
