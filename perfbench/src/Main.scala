package repro.perfbench

/** Entry point of one benchmark run. `setup_s` is the time from here to the
  * first timed op: input generation, `Models.dustRoberta` training, TF-IDF
  * fitting and warm-up, once, in a fresh process.
  */
object Main {
  def main(argv: Array[String]): Unit = {
    val (run, setupNs) = Stats.nanos { val r = new BenchRun(Args.parse(argv)); r.setup(); r }
    println(run.finish(setupNs / 1e9))
  }
}
