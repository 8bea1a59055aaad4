package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import repro.core.{ColumnAlignment, DiversifyTuples, Dust, DustModel, OuterUnion}
import repro.embed.{ColumnEmbedders, TfIdf}
import repro.search.UnionSearch
import repro.util.VecOps

/** One timed call: `parent` is the enclosing span's id (-1 at top level);
  * spans of one op share `op`.
  */
final case class Span(id: Int, name: String, parent: Int, op: Int, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder; spans are written out once, at the end. */
final class Tracer {
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  private var open: List[Int] = Nil

  def span[A](name: String, op: Int)(body: => A): A = {
    val id = spans.length
    spans += null
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime
    try body
    finally {
      spans(id) = Span(id, name, parent, op, t0, System.nanoTime)
      open = open.tail
    }
  }

  /** Self time of every span: its duration minus its children's. */
  def selfNs: Map[Int, Long] = {
    val child = spans.groupBy(_.parent).view.mapValues(_.map(_.durNs).sum).toMap
    spans.map(s => s.id -> (s.durNs - child.getOrElse(s.id, 0L))).toMap
  }

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val lines = spans.map(s =>
      s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, "op": ${s.op}, """ +
        s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}}""")
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}

/** Everything one traced op produced, kept for the layer metrics and as
  * captured inputs for the kernel timings.
  */
final case class Replayed(
    op: Op,
    tfidf: TfIdf,
    tables: Vector[repro.data.SimpleTable],
    aligned: ColumnAlignment.Aligned,
    lakeTuples: Vector[OuterUnion.UnionTuple],
    lakeEmb: Vector[DiversifyTuples.EmbTuple],
    queryEmb: Vector[Array[Double]],
    pruned: Vector[DiversifyTuples.EmbTuple],
    medoids: Vector[DiversifyTuples.EmbTuple],
    chosen: Vector[DiversifyTuples.EmbTuple],
    distEvals: Map[String, Long],
)

object Trace {

  /** The stage sequence of `Dust.run`, call for call, with a span around
    * each call into a layer. Distances are counted through the `dist`
    * argument, which computes the default `VecOps.cosineDist`.
    */
  def replay(op: Op, model: DustModel, cfg: Dust.Config, tr: Tracer): Replayed = {
    val i = op.index
    val evals = scala.collection.mutable.LinkedHashMap("prune" -> 0L, "cluster" -> 0L, "rerank" -> 0L)
    def counted(stage: String): DiversifyTuples.Dist = (a, b) => {
      evals(stage) += 1
      VecOps.cosineDist(a, b)
    }
    val embedder = ColumnEmbedders.dustDefault
    tr.span("op", i) {
      val tfidf = op.tfidf.getOrElse(tr.span("tfidf_fit", i)(TfIdf.fit(op.bench.lake :+ op.query)))
      val tables = op.tablesOverride.getOrElse(tr.span("search", i)(
        UnionSearch.searchTables(op.query, op.bench, cfg.topN, embedder, tfidf)))
      val aligned = tr.span("align", i)(ColumnAlignment.alignHolistic(op.query, tables, embedder, tfidf))
      val lakeTuples = tr.span("union", i)(OuterUnion.union(op.query, tables, aligned))
      val queryTuples = tr.span("union", i)(OuterUnion.queryTuples(op.query))
      val lakeEmb = tr.span("embed_tuples", i)(Dust.embedTuples(model, lakeTuples))
      val queryEmb = tr.span("embed_query", i)(queryTuples.map(t => model.embed(t.pairs)))
      val pruned = tr.span("prune", i)(DiversifyTuples.prune(lakeEmb, cfg.s, counted("prune")))
      val medoids = tr.span("cluster_medoids", i)(
        DiversifyTuples.clusterMedoids(pruned, cfg.k * cfg.p, counted("cluster")))
      val chosen = tr.span("rerank", i)(DiversifyTuples.rerank(medoids, queryEmb, cfg.k, counted("rerank")))
      Replayed(op, tfidf, tables, aligned, lakeTuples, lakeEmb, queryEmb, pruned, medoids, chosen,
        evals.toMap)
    }
  }
}
