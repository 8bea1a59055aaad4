package repro.perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._
import repro.core.{ColumnAlignment, DiversityMetrics, Dust, DustModel}
import repro.embed.ColumnEmbedders
import repro.exp.Models
import repro.search.UnionSearch
import Stats.Metric

/** Command-line arguments of one benchmark run. */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: String)

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", kv.getOrElse("work-dir", ".bench_build/perfbench/run"))
    require(Workloads.names.contains(a.workload),
      s"unknown workload ${a.workload}; expected one of ${Workloads.names.mkString(", ")}")
    require(a.seconds >= 1, "--seconds must be at least 1")
    a
  }
}

/** One answer of the timed phase. */
final case class Sample(op: Op, ms: Double, ids: Vector[Long], violations: Vector[String], allocBytes: Long)

/** One benchmark run of one workload: `setup` generates inputs, trains the
  * model, fits TF-IDF and warms up; `finish` runs the timed phase and, with
  * `--trace 1`, the traced replay, kernel timings and the in-process vs
  * Spark comparison.
  */
final class BenchRun(args: Args) {
  private var model: DustModel = _
  private var workload: Workload = _
  private val warmIds = scala.collection.mutable.HashMap.empty[Int, Vector[Long]]

  private def run(op: Op): Dust.Result =
    Dust.run(op.query, op.bench, model, workload.cfg,
      tfidfOpt = op.tfidf, tablesOverride = op.tablesOverride)

  def setup(): Unit = {
    workload = Workloads(args.workload, args.seed)
    model = Models.dustRoberta
    workload.ops.take(workload.warmups).foreach(op => warmIds(op.index) = run(op).selected.map(_.id))
  }

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcMillis(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Closed loop, one client: answer ops in order until `seconds` of op
    * time have been spent or the ops run out.
    */
  private def timedPhase(): (Vector[Sample], Long) = {
    val budgetNs = args.seconds * 1000000000L
    val samples = Vector.newBuilder[Sample]
    var spentNs = 0L
    val gc0 = gcMillis()
    val it = workload.ops.iterator
    while (spentNs < budgetNs && it.hasNext) {
      val op = it.next()
      val a0 = threads.getCurrentThreadAllocatedBytes
      val t0 = System.nanoTime
      val res = try Right(run(op)) catch { case e: Exception => Left(e) }
      val ns = System.nanoTime - t0
      val alloc = threads.getCurrentThreadAllocatedBytes - a0
      spentNs += ns
      val (ids, bad) = res match {
        case Left(e) => (Vector.empty, Vector(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}"))
        case Right(r) =>
          (r.selected.map(_.id),
            Checks.selection(workload.cfg, r) ++ Checks.rerankOrder(op, model, r) ++
              Checks.repeatable(warmIds.get(op.index), r))
      }
      samples += Sample(op, ns / 1e6, ids, bad, alloc)
    }
    (samples.result(), gcMillis() - gc0)
  }

  /** Runs the measured part and returns the result line. */
  def finish(setupSeconds: Double): String = {
    val (samples, gcMs) = timedPhase()
    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    val lat = samples.map(_.ms)
    val failed = samples.count(_.violations.nonEmpty)
    val tailP = Stats.tailPercentile(lat.size)
    val p50 = Stats.median(lat)

    println(s"workload ${args.workload} seed ${args.seed}: ${samples.size} ops in ${args.seconds} s of op time, " +
      s"${workload.ops.size} generated, ${workload.warmups} answered in warm-up")
    println(f"query_p50_ms $p50%.3f ms (n=${lat.size}); query_tail_ms = p$tailP " +
      f"${Stats.percentile(lat, tailP)}%.3f ms (n=${lat.size}); failed_op_share ${failed.toDouble / lat.size}%.4f " +
      s"($failed of ${lat.size}); setup_s ${setupSeconds} s")
    println(s"selection digest (first ${workload.warmups} ops): ${digest(samples.take(workload.warmups))}")
    samples.filter(_.violations.nonEmpty).take(5).foreach(s =>
      println(s"op ${s.op.index} failed: ${s.violations.mkString("; ")}"))

    if (!args.trace) {
      val metrics = Vector(
        Metric("query_p50_ms", p50, "ms"),
        Metric("query_tail_ms", Stats.percentile(lat, tailP), "ms"),
        Metric("queries_per_s", (lat.size - failed) / (lat.sum / 1e3), "1/s"),
        Metric("setup_s", setupSeconds, "s"),
        Metric("retained_heap_mb", heapMb, "MB"),
        Metric("ok_op_share", (lat.size - failed).toDouble / lat.size, "share"),
      )
      Stats.resultJson(failed == 0, samples.size, failed, metrics)
    } else {
      // Each in-process vs Spark comparison is one more checked op.
      val (metrics, sparkChecks) = traced(samples, gcMs)
      sparkChecks.flatten.foreach(v => println(s"Spark check failed: $v"))
      val nFailed = failed + sparkChecks.count(_.nonEmpty)
      Stats.resultJson(nFailed == 0, samples.size + sparkChecks.size, nFailed, metrics)
    }
  }

  /** Stable hex digest of the selected ids of the given ops. */
  private def digest(ss: Seq[Sample]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    ss.foreach(s => md.update(s"${s.op.index}:${s.ids.mkString(",")};".getBytes("UTF-8")))
    md.digest().take(8).map("%02x".format(_)).mkString
  }

  /** Ops replayed with spans: enough to cover the stage mix, few enough
    * to keep a traced run short.
    */
  private val MaxTraced = 8
  private val SparkOps = 3

  private def traced(samples: Vector[Sample], gcMs: Long): (Vector[Metric], Vector[Vector[String]]) = {
    val tr = new Tracer
    val sampled = samples.filter(_.violations.isEmpty).take(MaxTraced)
    require(sampled.nonEmpty, "no op passed its checks, nothing to trace")
    val replays = sampled.map(s => Trace.replay(s.op, model, workload.cfg, tr))
    tr.writeJsonLines(java.nio.file.Paths.get(args.workDir, s"spans-${args.workload}-seed${args.seed}.jsonl"))

    val self = tr.selfNs
    val byOp = tr.spans.groupBy(_.op)
    def perOp(f: Replayed => Double): Double = Stats.median(replays.map(f))
    def stageMs(name: String)(r: Replayed): Double =
      byOp(r.op.index).filter(_.name == name).map(s => self(s.id)).sum / 1e6
    def opSpan(r: Replayed): Span = byOp(r.op.index).find(_.name == "op").get
    def searched(r: Replayed): Boolean = r.op.tablesOverride.isEmpty
    // The tables the search ranks, by a second untraced call after the replay.
    def tablesScored(r: Replayed): Double =
      UnionSearch.rankTables(r.op.query, r.op.bench, ColumnEmbedders.dustDefault, r.tfidf).size

    val kernels = Kernels.measure(replays.head, workload.cfg.k, workload.cfg.p)
    val (sparkMetrics, sparkChecks) =
      if (args.workload == "diversify_santos")
        Kernels.sparkVsInProcess(replays.take(SparkOps), workload.cfg, args.workDir)
      else (Vector(Metric("spark.prune_ms", 0, "ms"), Metric("spark.rerank_ms", 0, "ms")), Vector.empty)

    val tracedP50 = perOp(r => opSpan(r).durNs / 1e6)
    val untracedP50 = Stats.median(sampled.map(_.ms))
    val agree = sampled.zip(replays).count { case (s, r) => s.ids == r.chosen.map(_.id) }

    val metrics = Vector(
      Metric("search.self_ms", perOp(stageMs("search")), "ms"),
      Metric("search.tables_scored", perOp(r => if (searched(r)) tablesScored(r) else 0), "count"),
      Metric("search.precision_at_n", perOp(r =>
        if (searched(r)) r.tables.count(_.baseId == r.op.query.baseId).toDouble / math.max(1, r.tables.size) else 0),
        "share"),
      Metric("embed.tfidf_fit_ms", perOp(stageMs("tfidf_fit")), "ms"),
      Metric("align.self_ms", perOp(stageMs("align")), "ms"),
      Metric("align.columns", perOp(r => r.op.query.nCols + r.tables.map(_.nCols).sum), "count"),
      Metric("align.clusters_kept", perOp(_.aligned.clusters.size), "count"),
      Metric("align.f1", perOp(r => ColumnAlignment.evaluate(r.aligned, r.op.query,
        r.tables.filter(_.baseId == r.op.query.baseId)).f1), "share"),
      Metric("union.self_ms", perOp(stageMs("union")), "ms"),
      Metric("union.tuples", perOp(_.lakeTuples.size), "count"),
      Metric("union.contentless", perOp(_.lakeTuples.count(_.pairs.isEmpty)), "count"),
      Metric("union.contentless_share", perOp(r =>
        r.lakeTuples.count(_.pairs.isEmpty).toDouble / math.max(1, r.lakeTuples.size)), "share"),
      Metric("embed_tuples.self_ms", perOp(stageMs("embed_tuples")), "ms"),
      Metric("embed_query.self_ms", perOp(stageMs("embed_query")), "ms"),
      Metric("embed_tuples.tuple_us", perOp(r => stageMs("embed_tuples")(r) * 1e3 / math.max(1, r.lakeTuples.size)), "us"),
      Metric("prune.self_ms", perOp(stageMs("prune")), "ms"),
      Metric("prune.kept", perOp(_.pruned.size), "count"),
      Metric("prune.kept_share", perOp(r => r.pruned.size.toDouble / math.max(1, r.lakeTuples.size)), "share"),
      Metric("cluster_medoids.self_ms", perOp(stageMs("cluster_medoids")), "ms"),
      Metric("cluster_medoids.medoids", perOp(_.medoids.size), "count"),
      Metric("rerank.self_ms", perOp(stageMs("rerank")), "ms"),
      Metric("dist.evals_prune", perOp(_.distEvals("prune")), "count"),
      Metric("dist.evals_cluster", perOp(_.distEvals("cluster")), "count"),
      Metric("dist.evals_rerank", perOp(_.distEvals("rerank")), "count"),
      Metric("quality.avg_div", perOp(r => DiversityMetrics.averageDiversity(r.queryEmb, r.chosen.map(_.vec))), "score"),
      Metric("quality.min_div", perOp(r => DiversityMetrics.minDiversity(r.queryEmb, r.chosen.map(_.vec))), "score"),
      Metric("jvm.alloc_mb_per_op", Stats.median(samples.map(_.allocBytes / 1048576.0)), "MB"),
      Metric("jvm.gc_ms", gcMs.toDouble / samples.size, "ms"),
      Metric("trace.coverage", perOp { r =>
        val op = opSpan(r)
        byOp(r.op.index).filter(_.parent == op.id).map(_.durNs).sum.toDouble / op.durNs
      }, "share"),
      Metric("trace.overhead_pct", (tracedP50 - untracedP50) / untracedP50 * 100, "%"),
      Metric("trace.selection_agree", agree.toDouble / math.max(1, sampled.size), "share"),
    ) ++ kernels ++ sparkMetrics
    (metrics, sparkChecks)
  }
}
