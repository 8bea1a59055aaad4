package repro.perfbench

import repro.cluster.{ConstrainedHac, Hac, Silhouette}
import repro.core.DiversifyTuples
import repro.data.SimpleTable
import repro.embed.{ColumnEmbedders, HashLm}
import repro.util.VecOps
import Stats.Metric

/** Kernel timings, taken from outside on inputs captured from one traced
  * op: its real token stream and lake columns, its alignment column matrix
  * and its pruned tuple set. Each kernel runs `Reps` times; the median call
  * is reported.
  */
object Kernels {

  val Reps = 3
  private val MaxTokens = 20000
  private val MaxTables = 60
  private val MaxDistPoints = 300

  /** Tables whose columns the op embeds: the whole lake when it searches,
    * then the query and the tables it aligns.
    */
  private def embeddedTables(r: Replayed): Vector[SimpleTable] =
    (if (r.op.tablesOverride.isEmpty) r.op.bench.lake :+ r.op.query else Vector.empty) ++
      (r.op.query +: r.tables)

  def measure(r: Replayed, k: Int, p: Int): Vector[Metric] = {
    val embedder = ColumnEmbedders.dustDefault
    val tables = embeddedTables(r)

    // Column embedder's token stream, repeats included, in embedding order.
    val tokens = tables.iterator.flatMap { t =>
      t.cols.indices.iterator.flatMap(j => r.tfidf.topTokens(t.columnValues(j)).map(_._1))
    }.take(MaxTokens).toVector
    val lm = HashLm.roberta
    val tokenNs = Stats.medianNs(Reps)(tokens.foreach(lm.tokenVec)) / math.max(1, tokens.size)

    val sample = tables.take(MaxTables)
    val nCols = math.max(1, sample.map(_.nCols).sum)
    val colUs = Stats.medianNs(Reps)(sample.foreach(t => embedder.embedAll(t, r.tfidf))) / nCols / 1e3

    // Alignment input: query columns are group 0, table t's are group t + 1.
    val colEmbs = embedder.embedAll(r.op.query, r.tfidf) ++ r.tables.flatMap(t => embedder.embedAll(t, r.tfidf))
    val groups = (Vector.fill(r.op.query.nCols)(0) ++
      r.tables.zipWithIndex.flatMap { case (t, ti) => Vector.fill(t.nCols)(ti + 1) }).toArray
    val colD = Hac.distMatrix(colEmbs, VecOps.euclidean)
    val chacNs = Stats.medianNs(Reps)(ConstrainedHac.cluster(colD, groups))
    val cuts = ConstrainedHac.cluster(colD, groups).levels.filter(_._1 >= 2)
    val silNs = if (cuts.isEmpty) 0.0 else Stats.medianNs(Reps)(Silhouette.bestCut(colD, cuts))

    // Diversification input: the op's pruned set.
    val vecs = r.pruned.map(_.vec)
    val distNs = Stats.medianNs(Reps)(Hac.distMatrix(vecs, VecOps.cosineDist))
    val d = Hac.distMatrix(vecs, VecOps.cosineDist)
    val upgmaNs = Stats.medianNs(Reps)(Hac.upgma(d))
    val clusters: Vector[IndexedSeq[Array[Double]]] =
      if (vecs.isEmpty) Vector.empty
      else {
        val labels = Hac.upgma(d).cut(math.min(k * p, vecs.size))
        vecs.indices.groupBy(labels(_)).values.toVector.map(_.map(vecs))
      }
    val medoidNs = Stats.medianNs(Reps)(clusters.foreach(vs => VecOps.medoidIndex(vs, VecOps.cosineDist)))

    val pts = vecs.take(MaxDistPoints)
    val pairs = pts.size.toLong * (pts.size - 1) / 2
    val cosNs = Stats.medianNs(Reps) {
      var i = 0; var acc = 0.0
      while (i < pts.size) { var j = i + 1; while (j < pts.size) { acc += VecOps.cosineDist(pts(i), pts(j)); j += 1 }; i += 1 }
      acc
    } / math.max(1L, pairs)

    Vector(
      Metric("embed.token_vec_ns", tokenNs, "ns"),
      Metric("embed.column_embed_us", colUs, "us"),
      Metric("cluster.constrained_hac_ms", chacNs / 1e6, "ms"),
      Metric("cluster.silhouette_ms", silNs / 1e6, "ms"),
      Metric("cluster.dist_matrix_ms", distNs / 1e6, "ms"),
      Metric("cluster.upgma_ms", upgmaNs / 1e6, "ms"),
      Metric("cluster.medoid_ms", medoidNs / 1e6, "ms"),
      Metric("util.cosine_dist_ns", cosNs, "ns"),
    )
  }

  /** In-process vs Spark prune and re-rank on captured ops. The first op warms
    * Spark up and is not timed. Returns the metrics and, per op, the ways
    * Spark's ids differ from the in-process ones.
    */
  def sparkVsInProcess(rs: Vector[Replayed], cfg: repro.core.Dust.Config,
                    workDir: String): (Vector[Metric], Vector[Vector[String]]) = {
    import org.apache.spark.sql.SparkSession
    import org.apache.spark.sql.functions.col
    val spark = SparkSession.builder
      .master("local[2]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()
    try {
      val timed = rs.map { r =>
        val (prunedIds, pruneNs) = Stats.nanos(
          DiversifyTuples.fromDF(DiversifyTuples.sparkPrune(spark,
            DiversifyTuples.toDF(spark, r.lakeEmb), cfg.s)).map(_.id))
        val queryDf = DiversifyTuples.toDF(spark, r.queryEmb.zipWithIndex.map { case (v, i) =>
          DiversifyTuples.EmbTuple(i.toLong, r.op.query.name, v) })
        val (chosenIds, rerankNs) = Stats.nanos(
          DiversifyTuples.fromDF(DiversifyTuples.sparkRerank(spark,
            DiversifyTuples.toDF(spark, r.medoids), queryDf, cfg.k).orderBy(col("rk"))).map(_.id))
        val bad = Vector(
          if (prunedIds.sorted != r.pruned.map(_.id).sorted) Some(s"op ${r.op.index}: Spark prune differs") else None,
          if (chosenIds != r.chosen.map(_.id)) Some(s"op ${r.op.index}: Spark re-rank differs") else None,
        ).flatten
        (pruneNs.toDouble, rerankNs.toDouble, bad)
      }
      val measured = if (timed.size > 1) timed.tail else timed
      (Vector(
        Metric("spark.prune_ms", Stats.median(measured.map(_._1)) / 1e6, "ms"),
        Metric("spark.rerank_ms", Stats.median(measured.map(_._2)) / 1e6, "ms"),
      ), timed.map(_._3))
    } finally spark.stop()
  }
}
