package repro.core

import repro.data.{LakeBenchmark, SimpleTable}
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.search.UnionSearch

/** DUST end-to-end (Algorithm 1): SearchTables → AlignColumns → EmbedTuples
  * → DiversifyTuples.
  */
object Dust {

  final case class Config(
      topN: Int = 10,   // unionable tables retrieved by SearchTables
      k: Int = 30,      // output diverse tuples
      p: Int = 2,       // candidate multiplier (App. A.2.2)
      s: Int = 2500,    // pruning budget (§5.1)
  )

  final case class Result(
      tables: Vector[SimpleTable],
      aligned: ColumnAlignment.Aligned,
      queryTuples: Vector[OuterUnion.UnionTuple],
      lakeTuples: Vector[OuterUnion.UnionTuple],
      queryEmb: Vector[Array[Double]],
      selected: Vector[OuterUnion.UnionTuple],
  )

  /** The column embedder SearchTables and AlignColumns use. */
  private val embedder = ColumnEmbedders.dustDefault

  /** Embed unionable tuples with the fine-tuned model. */
  def embedTuples(model: DustModel, tuples: Seq[OuterUnion.UnionTuple]): Vector[DiversifyTuples.EmbTuple] =
    tuples.toVector.map(t => DiversifyTuples.EmbTuple(t.id, t.table, model.embed(t.pairs)))

  /** AlignColumns → outer union → EmbedTuples over a fixed unionable set. */
  private[repro] final case class Embedded(
      aligned: ColumnAlignment.Aligned,
      queryTuples: Vector[OuterUnion.UnionTuple],
      lakeTuples: Vector[OuterUnion.UnionTuple],
      lakeEmb: Vector[DiversifyTuples.EmbTuple],
      queryEmb: Vector[Array[Double]],
  )

  private[repro] def alignUnionEmbed(query: SimpleTable, tables: Vector[SimpleTable], model: DustModel,
                                     tfidf: TfIdf): Embedded = {
    val aligned = ColumnAlignment.alignHolistic(query, tables, embedder, tfidf)
    val lakeTuples = OuterUnion.union(query, tables, aligned)
    val queryTuples = OuterUnion.queryTuples(query)
    val lakeEmb = embedTuples(model, lakeTuples)
    val queryEmb = queryTuples.map(t => model.embed(t.pairs))
    Embedded(aligned, queryTuples, lakeTuples, lakeEmb, queryEmb)
  }

  /** Full pipeline on the driver.
    *
    * @param tablesOverride bypass SearchTables with a fixed unionable set
    *                       (the Table 2 experiments diversify ground-truth
    *                       unionable tables, as the paper does)
    */
  def run(query: SimpleTable, bench: LakeBenchmark, model: DustModel, cfg: Config,
          tfidfOpt: Option[TfIdf] = None,
          tablesOverride: Option[Vector[SimpleTable]] = None): Result = {
    val tfidf = tfidfOpt.getOrElse(TfIdf.fit(bench.lake :+ query))
    val tables = tablesOverride.getOrElse(
      UnionSearch.searchTables(query, bench, cfg.topN, embedder, tfidf))
    val e = alignUnionEmbed(query, tables, model, tfidf)
    val chosen = DiversifyTuples.run(e.lakeEmb, e.queryEmb, cfg.k, cfg.p, cfg.s)
    val byId = e.lakeTuples.map(t => t.id -> t).toMap
    Result(tables, e.aligned, e.queryTuples, e.lakeTuples, e.queryEmb, chosen.map(c => byId(c.id)))
  }
}
