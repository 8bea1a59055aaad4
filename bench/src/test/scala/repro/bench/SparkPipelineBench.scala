package repro.bench

import repro.SparkSpec
import repro.core.{DiversifyTuples, Dust}
import repro.exp.{Benchmarks, Fmt, Models}

/** Spark-path bench: the prune/re-rank steps run as Spark dataflows over one
  * query's pipeline embeddings, timed and checked equal to the driver-side
  * steps and selection.
  */
class SparkPipelineBench extends SparkSpec {

  test("Spark prune/re-rank equal the driver (SANTOS-lite)") {
    val bench = Benchmarks.santos
    val q = bench.queries.head
    val cfg = Dust.Config(topN = 6, k = 20, s = 400)
    val model = Models.dustRoberta
    val tfidf = Benchmarks.tfidfFor(bench)
    val driver = Dust.run(q, bench, model, cfg, tfidfOpt = Some(tfidf))
    val e = Dust.alignUnionEmbed(q, driver.tables, model, tfidf)

    val (pruned, dPruneNs) = Fmt.timed(DiversifyTuples.prune(e.lakeEmb, cfg.s))
    val (sparkPruned, sPruneNs) = Fmt.timed(DiversifyTuples.fromDF(
      DiversifyTuples.sparkPrune(spark, DiversifyTuples.toDF(spark, e.lakeEmb), cfg.s)))
    val medoids = DiversifyTuples.clusterMedoids(pruned, cfg.k * cfg.p)
    val queryDf = DiversifyTuples.toDF(spark,
      e.queryEmb.zipWithIndex.map { case (v, i) => DiversifyTuples.EmbTuple(i.toLong, q.name, v) })
    val (chosen, dRerankNs) = Fmt.timed(DiversifyTuples.rerank(medoids, e.queryEmb, cfg.k))
    val (sparkChosen, sRerankNs) = Fmt.timed(DiversifyTuples.fromDF(
      DiversifyTuples.sparkRerank(spark, DiversifyTuples.toDF(spark, medoids), queryDf, cfg.k).orderBy("rk")))
    println(f"\n=== Spark prune/re-rank (SANTOS-lite, query ${q.name}) ===")
    println(f"prune (${e.lakeEmb.size} tuples): driver ${dPruneNs / 1e6}%.1f ms, spark ${sPruneNs / 1e6}%.0f ms; " +
      f"re-rank (${medoids.size} candidates): driver ${dRerankNs / 1e6}%.1f ms, spark ${sRerankNs / 1e6}%.0f ms")

    assert(sparkPruned.map(_.id).sorted == pruned.map(_.id).sorted,
      "Spark and driver prune must keep identical tuples")
    assert(sparkChosen.map(_.id) == chosen.map(_.id) && chosen.map(_.id) == driver.selected.map(_.id),
      "Spark and driver re-rank must select identical tuples, in the pipeline's order")
    assert(driver.selected.size == cfg.k)
  }
}
