package repro.perfbench

import repro.core.Dust
import repro.data.{Generators, LakeBenchmark, SimpleTable}
import repro.embed.TfIdf
import repro.util.Rng

/** One query of a workload: the exact arguments of one `Dust.run` call. */
final case class Op(
    index: Int,
    query: SimpleTable,
    bench: LakeBenchmark,
    tfidf: Option[TfIdf],
    tablesOverride: Option[Vector[SimpleTable]],
)

/** A workload's generated inputs. Ops are answered in order and none
  * repeats; the first `warmups` ops are also answered once during set-up.
  */
final case class Workload(name: String, cfg: Dust.Config, ops: Vector[Op], warmups: Int)

/** The three workloads. Each lake is generated once from its shape's own
  * generator seed, like a data lake that exists before any query; the
  * workload seed picks which queries are asked, in which order, and (on
  * `churn_ugen`) which tables enter the lake when. A fresh lake per seed
  * would move query cost with the lake's random make-up (its mix of
  * numeric and text columns), not with the code under test.
  *
  *  - `search_tus`: a TUS-lite-shaped lake shared by every op, TF-IDF fitted
  *    once. SearchTables re-embeds the whole lake per query, so search
  *    dominates; caching or indexing lake columns would show here.
  *  - `diversify_santos`: SANTOS-lite with 4,000-row bases and 200-row
  *    queries; each op diversifies its query's ground-truth unionable tables
  *    (the paper's Table 2 set-up), a ~4,500-tuple union pruned to s = 2,500.
  *    Search is bypassed and no two ops share a table, so cross-query caches
  *    cannot help; embedding, distance and UPGMA kernels dominate.
  *  - `churn_ugen`: a UGEN-lite lake held at 200 tables; before each op five
  *    new tables enter and the five oldest leave, and TF-IDF is refitted
  *    inside `Dust.run`. Index upkeep under writes shows here.
  */
object Workloads {

  val names: Vector[String] = Vector("search_tus", "diversify_santos", "churn_ugen")

  val ChurnLakeSize = 200
  val ChurnBatch = 5

  def apply(name: String, seed: Long): Workload = name match {
    case "search_tus"       => searchTus(seed)
    case "diversify_santos" => diversifySantos(seed)
    case "churn_ugen"       => churnUgen(seed)
    case other              => throw new IllegalArgumentException(s"unknown workload $other")
  }

  private def orderRng(seed: Long, salt: Long): Rng = new Rng(Rng.mix(salt, seed))

  def searchTus(seed: Long): Workload = {
    val bench = Generators.generate(Generators.tusLiteConfig.copy(nQueries = 60))
    val tfidf = TfIdf.fit(bench.lake ++ bench.queries)
    val order = orderRng(seed, 1).shuffle(bench.queries)
    val ops = order.zipWithIndex.map { case (q, i) => Op(i, q, bench, Some(tfidf), None) }
    Workload("search_tus", Dust.Config(topN = 10, k = 30, p = 2, s = 600), ops, warmups = 3)
  }

  def diversifySantos(seed: Long): Workload = {
    // One base per query, so no two ops share a lake table.
    val bench = Generators.generate(Generators.santosLiteConfig.copy(
      nBases = 24, nQueries = 24, rowsPerBase = 4000, queryRowFrac = 0.05))
    val tfidf = TfIdf.fit(bench.lake ++ bench.queries)
    val order = orderRng(seed, 2).shuffle(bench.queries)
    val ops = order.zipWithIndex.map { case (q, i) =>
      Op(i, q, bench, Some(tfidf), Some(bench.unionableFor(q)))
    }
    Workload("diversify_santos", Dust.Config(k = 100, p = 2, s = 2500), ops, warmups = 2)
  }

  def churnUgen(seed: Long): Workload = {
    val nQueries = 200
    val cfg = Generators.ugenLiteConfig
    val gen = Generators.generate(cfg.copy(nQueries = nQueries, tablesPerBase = 50))
    // `generate` appends one near-copy per query after the derived tables.
    val derived = gen.lake.dropRight(nQueries)
    val copies = gen.lake.takeRight(nQueries)
    val rng = orderRng(seed, 3)
    val order = rng.shuffle(gen.queries.indices)
    val pool = rng.shuffle(derived)
    require(pool.size >= ChurnLakeSize + (ChurnBatch - 1) * nQueries, "churn pool too small")
    // Table stream: the initial lake, then per op one batch holding the
    // query's near-copy and fresh derived tables.
    val stream = pool.take(ChurnLakeSize) ++ order.indices.flatMap { i =>
      val from = ChurnLakeSize + (ChurnBatch - 1) * i
      copies(order(i)) +: pool.slice(from, from + ChurnBatch - 1)
    }
    val ops = order.zipWithIndex.map { case (qi, i) =>
      val q = gen.queries(qi)
      val start = ChurnBatch * (i + 1)
      val lake = stream.slice(start, start + ChurnLakeSize)
      Op(i, q, LakeBenchmark(s"${cfg.name}-churn$i", Vector(q), lake), None, None)
    }
    Workload("churn_ugen", Dust.Config(k = 10, p = 2, s = 600), ops, warmups = 12)
  }
}
