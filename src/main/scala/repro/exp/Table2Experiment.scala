package repro.exp

import repro.core.{DiversifyTuples, DiversityMetrics, Dust}
import repro.data.LakeBenchmark
import repro.divbase._

/** Table 2 — tuple diversification effectiveness and efficiency (§6.4):
  * for each query, each algorithm diversifies the same pruned candidate set
  * (pruning applied uniformly, App. A.2.3); we count per-benchmark how many
  * queries each algorithm wins on Average and Min diversity, and the mean
  * per-query runtime. GNE runs only on UGEN (it does not scale — paper's
  * "-"). Also runs the best-of-5-seeds random baseline sanity check.
  */
object Table2Experiment {

  final case class MethodResult(method: String, avgWins: Int, minWins: Int,
                                avgTimeMs: Double, included: Boolean)

  final case class BenchResult(benchmark: String, results: Vector[MethodResult],
                               dustBeatsRandomAvg: Int, dustBeatsRandomMin: Int, nQueries: Int)

  /** Per-query diversification inputs: candidate lake tuples + query embeddings. */
  final case class QueryInstance(name: String,
                                 cands: Vector[DiversifyTuples.EmbTuple],
                                 queryEmb: Vector[Array[Double]])

  /** Build instances: ground-truth unionable tables → holistic alignment →
    * outer union → DUST embeddings → uniform pruning.
    */
  def instances(bench: LakeBenchmark, s: Int = Benchmarks.pruneS): Vector[QueryInstance] = {
    val tfidf = Benchmarks.tfidfFor(bench)
    val model = Models.dustRoberta
    bench.queries.flatMap { q =>
      val tables = bench.unionableFor(q)
      if (tables.isEmpty) None
      else {
        val e = Dust.alignUnionEmbed(q, tables, model, tfidf)
        Some(QueryInstance(q.name, DiversifyTuples.prune(e.lakeEmb, s), e.queryEmb))
      }
    }
  }

  /** Methods within 1e-12 of the best score (ties all win). */
  private[exp] def winners(scores: Seq[(String, Double)]): Set[String] = {
    val best = scores.map(_._2).max
    scores.collect { case (m, v) if v >= best - 1e-12 => m }.toSet
  }

  def run(bench: LakeBenchmark, k: Int, includeGne: Boolean): BenchResult = {
    val algos: Vector[(DivAlgo, Boolean)] = Vector(
      (Gmc(), true),
      (Gne(), includeGne),
      (Clt(), true),
      (DustDiv(), true),
    )
    val insts = instances(bench)
    val avgWins = scala.collection.mutable.HashMap.empty[String, Int].withDefaultValue(0)
    val minWins = scala.collection.mutable.HashMap.empty[String, Int].withDefaultValue(0)
    val times = scala.collection.mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    var dustBeatsRandomAvg = 0; var dustBeatsRandomMin = 0

    insts.foreach { inst =>
      val kk = math.min(k, math.max(1, inst.cands.size - 1))
      val perAlgo = algos.collect { case (a, true) =>
        val (sel, ns) = Fmt.timed(a.select(inst.cands, inst.queryEmb, kk))
        times(a.name) += ns
        val vecs = sel.map(_.vec)
        (a.name,
         DiversityMetrics.averageDiversity(inst.queryEmb, vecs),
         DiversityMetrics.minDiversity(inst.queryEmb, vecs))
      }
      winners(perAlgo.map(r => (r._1, r._2))).foreach(m => avgWins(m) += 1)
      winners(perAlgo.map(r => (r._1, r._3))).foreach(m => minWins(m) += 1)

      // Best-of-5-seeds random baseline vs DUST (§6.4.3's sanity check).
      val dust = perAlgo.find(_._1 == "DUST").get
      val randomSets = (1 to 5).map { sd =>
        val sel = RandomDiv(sd.toLong).select(inst.cands, inst.queryEmb, kk).map(_.vec)
        (DiversityMetrics.averageDiversity(inst.queryEmb, sel),
         DiversityMetrics.minDiversity(inst.queryEmb, sel))
      }
      if (dust._2 >= randomSets.map(_._1).max) dustBeatsRandomAvg += 1
      if (dust._3 >= randomSets.map(_._2).max) dustBeatsRandomMin += 1
    }

    val results = algos.map { case (a, included) =>
      MethodResult(a.name,
        if (included) avgWins(a.name) else -1,
        if (included) minWins(a.name) else -1,
        if (included) times(a.name) / 1e6 / math.max(1, insts.size) else -1.0,
        included)
    }
    BenchResult(bench.name, results, dustBeatsRandomAvg, dustBeatsRandomMin, insts.size)
  }

  def render(rs: Seq[BenchResult]): String = {
    val header = Seq("Method") ++ rs.flatMap(r =>
      Seq(s"${r.benchmark} #Avg", s"${r.benchmark} #Min", s"${r.benchmark} Time(ms)"))
    val methodNames = rs.head.results.map(_.method)
    val lines = methodNames.map { m =>
      Seq(m) ++ rs.flatMap { r =>
        val mr = r.results.find(_.method == m).get
        if (!mr.included) Seq("-", "-", "-")
        else Seq(mr.avgWins.toString, mr.minWins.toString, Fmt.f2(mr.avgTimeMs))
      }
    }
    Fmt.table(header, lines)
  }
}
