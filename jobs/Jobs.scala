package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** spark-submit entrypoints — one per reproduced table. Each prints the
  * table exactly as the bench suite does. Every experiment runs on the
  * driver and no job uses the session (no Parquet lake, no Spark
  * prune/re-rank); it is created so each job runs as a normal Spark
  * application under `spark-submit`.
  */
object JobUtil {
  def withSpark[A](name: String)(body: SparkSession => A): A = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try body(spark)
    finally spark.stop()
  }
}

/** Fig 5 — benchmark statistics. */
object Fig5Job {
  def main(args: Array[String]): Unit =
    JobUtil.withSpark("dust-fig5")(_ => println(Fig5Stats.render(Fig5Stats.all())))
}

/** Table 1 — column alignment effectiveness. */
object Table1Job {
  def main(args: Array[String]): Unit = JobUtil.withSpark("dust-table1") { _ =>
    val rows = Table1Experiment.run(Seq(Benchmarks.tusSampled, Benchmarks.santos, Benchmarks.ugen))
    println(Table1Experiment.render(rows))
  }
}

/** Fig 6 — tuple representation accuracy. */
object Fig6Job {
  def main(args: Array[String]): Unit =
    JobUtil.withSpark("dust-fig6")(_ => println(Fig6Experiment.render(Fig6Experiment.run())))
}

/** Table 2 — diversification effectiveness/efficiency. */
object Table2Job {
  def main(args: Array[String]): Unit = JobUtil.withSpark("dust-table2") { _ =>
    val rs = Seq(
      Table2Experiment.run(Benchmarks.santos, Benchmarks.santosK, includeGne = false),
      Table2Experiment.run(Benchmarks.ugen, Benchmarks.ugenK, includeGne = true),
    )
    println(Table2Experiment.render(rs))
  }
}

/** Table 3 — DUST vs table search techniques. */
object Table3Job {
  def main(args: Array[String]): Unit = JobUtil.withSpark("dust-table3") { _ =>
    val rs = Seq(
      Table3Experiment.run(Benchmarks.santos, Benchmarks.santosK, includeLlm = false),
      Table3Experiment.run(Benchmarks.ugen, Benchmarks.ugenK, includeLlm = true),
    )
    println(Table3Experiment.render(rs))
  }
}

/** Fig 7 + A.2.2/A.2.3 — scaling, pruning and p analyses. */
object ScalingJob {
  def main(args: Array[String]): Unit = JobUtil.withSpark("dust-scaling") { _ =>
    println(ScalingExperiment.renderTimings(
      ScalingExperiment.varyS(Seq(400, 800, 1600, 3200), k = 50), "s"))
    println(ScalingExperiment.renderTimings(
      ScalingExperiment.varyK(Seq(25, 50, 100, 200), s = 1200), "k"))
  }
}

/** Fig 8 — IMDB case study novel-value counts. */
object CaseStudyJob {
  def main(args: Array[String]): Unit = JobUtil.withSpark("dust-casestudy") { _ =>
    println(CaseStudyExperiment.render(CaseStudyExperiment.run(Seq(20, 40, 60))))
  }
}
