package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
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
  * The driver-side functions are the algorithmic core (and what the
  * efficiency experiments time, matching the paper's single-node runs);
  * `sparkPrune` / `sparkRerank` express steps 1 and 3 as Spark dataflows
  * over `(id, table, vec)` frames for lake-scale runs and are tested equal
  * to the driver core and to DuckDB SQL.
  */
object DiversifyTuples {

  /** A tuple in embedding space. */
  final case class EmbTuple(id: Long, table: String, vec: Array[Double])

  type Dist = (Array[Double], Array[Double]) => Double

  // ------------------------------------------------------------------
  // Driver core
  // ------------------------------------------------------------------

  /** §5.1 — keep the global top-s tuples by distance from their table mean.
    * Deterministic: ties broken by ascending id.
    */
  def prune(tuples: Vector[EmbTuple], s: Int, dist: Dist = VecOps.cosineDist): Vector[EmbTuple] = {
    if (tuples.size <= s) return tuples
    val means: Map[String, Array[Double]] =
      tuples.groupBy(_.table).view.mapValues(ts => VecOps.mean(ts.map(_.vec))).toMap
    tuples
      .map(t => (t, dist(means(t.table), t.vec)))
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

  /** §5.3 — rank by (min distance to query desc, avg distance desc, id asc). */
  def rerank(cands: Vector[EmbTuple], query: Seq[Array[Double]], k: Int,
             dist: Dist = VecOps.cosineDist): Vector[EmbTuple] = {
    require(query.nonEmpty, "rerank needs query tuples")
    cands
      .map { t =>
        val ds = query.map(q => dist(t.vec, q))
        (t, ds.min, ds.sum / ds.size)
      }
      .sortBy { case (t, mn, avg) => (-mn, -avg, t.id) }
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

  import org.apache.spark.sql.Row

  def toDF(spark: SparkSession, tuples: Seq[EmbTuple]): DataFrame = {
    import spark.implicits._
    spark.createDataset(tuples.map(t => (t.id, t.table, t.vec.toSeq))).toDF("id", "table", "vec")
  }

  def fromDF(df: DataFrame): Vector[EmbTuple] =
    df.select("id", "table", "vec").collect().toVector.map { r =>
      EmbTuple(r.getLong(0), r.getString(1), r.getSeq[Double](2).toArray)
    }

  /** Distributed §5.1: per-table mean via explode/groupBy, cosine distance
    * from the mean assembled from sufficient statistics, global top-s.
    */
  def sparkPrune(spark: SparkSession, tuplesDf: DataFrame, s: Int): DataFrame = {
    val exploded = tuplesDf
      .select(col("id"), col("table"), posexplode(col("vec")).as(Seq("pos", "x")))
    val meanByTablePos = exploded
      .groupBy("table", "pos")
      .agg(avg("x") as "m")
    val stats = exploded
      .join(meanByTablePos, Seq("table", "pos"))
      .groupBy("id", "table")
      .agg(
        sum(col("x") * col("m")) as "dot",
        sqrt(sum(col("x") * col("x"))) as "nx",
        sqrt(sum(col("m") * col("m"))) as "nm",
      )
      .withColumn("score",
        when(col("nx") * col("nm") > lit(0.0),
             lit(1.0) - col("dot") / (col("nx") * col("nm"))).otherwise(lit(1.0)))
    val ranked = stats
      .withColumn("rk", row_number().over(Window.orderBy(col("score").desc, col("id").asc)))
      .where(col("rk") <= s)
      .select("id")
    tuplesDf.join(ranked, "id")
  }

  private[core] val cosDistUdf = udf { (a: Seq[Double], b: Seq[Double]) =>
    VecOps.cosineDist(a.toArray, b.toArray)
  }

  /** Distributed §5.3: cross join with the query tuples, min/avg aggregate,
    * rank desc with the paper's tie-break, top-k.
    */
  def sparkRerank(spark: SparkSession, candDf: DataFrame, queryDf: DataFrame, k: Int): DataFrame = {
    val q = queryDf.select(col("id") as "qid", col("vec") as "qvec")
    val scored = candDf
      .crossJoin(q)
      .select(col("id"), col("table"), col("vec"),
              cosDistUdf(col("vec"), col("qvec")) as "d")
      .groupBy("id", "table")
      .agg(min("d") as "rankScore", avg("d") as "tieScore")
    val vecs = candDf.select(col("id"), col("vec"))
    scored
      .withColumn("rk", row_number().over(
        Window.orderBy(col("rankScore").desc, col("tieScore").desc, col("id").asc)))
      .where(col("rk") <= k)
      .join(vecs, "id")
      .select("id", "table", "vec", "rankScore", "tieScore", "rk")
  }

  /** Full Algorithm 2 with steps 1 and 3 as Spark dataflows; step 2 runs on
    * the driver over the pruned set. Selects the same tuples as [[run]].
    */
  def runSpark(spark: SparkSession, tuples: Vector[EmbTuple], query: Seq[Array[Double]], k: Int,
               p: Int = 2, s: Int = 2500): Vector[EmbTuple] = {
    val pruned = fromDF(sparkPrune(spark, toDF(spark, tuples), s))
    val cands = clusterMedoids(pruned, k * p)
    val queryDf = toDF(spark, query.zipWithIndex.map { case (v, i) => EmbTuple(i.toLong, "query", v) })
    fromDF(sparkRerank(spark, toDF(spark, cands), queryDf, k).orderBy("rk"))
  }
}
