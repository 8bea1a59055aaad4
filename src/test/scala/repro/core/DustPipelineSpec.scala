package repro.core

import repro.SparkSpec
import repro.data.Generators
import repro.exp.{Benchmarks, Models}

/** End-to-end Algorithm 1 integration tests, including driver/Spark
  * equality of the prune and re-rank steps on the pipeline's embeddings.
  */
class DustPipelineSpec extends SparkSpec {
  private lazy val bench = Generators.ugenLite
  private lazy val model = Models.dustRoberta
  private lazy val q = bench.queries.head
  private lazy val cfg = Dust.Config(topN = 6, k = 8, s = 200)
  private lazy val result = Dust.run(q, bench, model, cfg, tfidfOpt = Some(Benchmarks.tfidfFor(bench)))

  test("pipeline returns k selected tuples") {
    assert(result.selected.size == cfg.k)
  }

  test("selected tuples come from searched tables") {
    val names = result.tables.map(_.name).toSet
    assert(result.selected.forall(t => names.contains(t.table)))
  }

  test("searched tables are mostly unionable with the query") {
    val frac = result.tables.count(_.baseId == q.baseId).toDouble / result.tables.size
    assert(frac >= 0.5, s"unionable fraction $frac")
  }

  test("selected tuples are distinct") {
    assert(result.selected.map(_.id).distinct.size == cfg.k)
  }

  test("selection is deterministic") {
    val again = Dust.run(q, bench, model, cfg, tfidfOpt = Some(Benchmarks.tfidfFor(bench)))
    assert(again.selected.map(_.id) == result.selected.map(_.id))
  }

  test("spark pipeline selects the same tuples as the driver pipeline") {
    // The Spark pipeline is sparkPrune then sparkRerank; each step is checked
    // against its driver counterpart on the pipeline's own embeddings.
    val e = Dust.alignUnionEmbed(q, result.tables, model, Benchmarks.tfidfFor(bench))
    val lakeDf = DiversifyTuples.toDF(spark, e.lakeEmb)
    // cfg.s keeps this small union whole; half of it makes the budget bind.
    Seq(cfg.s, e.lakeEmb.size / 2).foreach { s =>
      val sparkIds = DiversifyTuples.fromDF(DiversifyTuples.sparkPrune(spark, lakeDf, s)).map(_.id)
      assert(sparkIds.sorted == DiversifyTuples.prune(e.lakeEmb, s).map(_.id).sorted, s"s = $s")
    }

    val medoids = DiversifyTuples.clusterMedoids(DiversifyTuples.prune(e.lakeEmb, cfg.s), cfg.k * cfg.p)
    val queryDf = DiversifyTuples.toDF(spark,
      e.queryEmb.zipWithIndex.map { case (v, i) => DiversifyTuples.EmbTuple(i.toLong, q.name, v) })
    val sparkChosen = DiversifyTuples.sparkRerank(spark, DiversifyTuples.toDF(spark, medoids), queryDf, cfg.k)
      .orderBy("rk").select("id").collect().map(_.getLong(0)).toVector
    assert(sparkChosen == DiversifyTuples.rerank(medoids, e.queryEmb, cfg.k).map(_.id))
    assert(sparkChosen == result.selected.map(_.id))
  }

  test("DUST's selection is more min-diverse than the most-similar tuples (Fig 1 claim)") {
    val starmieTop = repro.search.TupleSearch.topK(result.lakeTuples, result.queryTuples, cfg.k)
    def minDiv(sel: Seq[OuterUnion.UnionTuple]): Double =
      DiversityMetrics.minDiversity(result.queryEmb, sel.map(t => model.embed(t.pairs)))
    assert(minDiv(result.selected) >= minDiv(starmieTop))
  }

  test("selected tuples favor novel base rows over query duplicates") {
    val qRows = result.queryTuples.map(_.baseRowId).toSet
    val dupFracSelected = result.selected.count(t => qRows.contains(t.baseRowId)).toDouble / cfg.k
    val dupFracLake = result.lakeTuples.count(t => qRows.contains(t.baseRowId)).toDouble /
      result.lakeTuples.size
    assert(dupFracSelected <= dupFracLake + 0.1,
      s"selected dup frac $dupFracSelected vs lake $dupFracLake")
  }

  test("tablesOverride bypasses the search step") {
    val gt = bench.unionableFor(q).take(3)
    val r = Dust.run(q, bench, model, cfg.copy(topN = 99), tablesOverride = Some(gt),
      tfidfOpt = Some(Benchmarks.tfidfFor(bench)))
    assert(r.tables == gt)
  }

  test("embedTuples yields one embedding per tuple with stable ids") {
    val embs = Dust.embedTuples(model, result.lakeTuples.take(10))
    assert(embs.map(_.id) == result.lakeTuples.take(10).map(_.id))
    assert(embs.forall(_.vec.length == model.dimOut))
  }
}
