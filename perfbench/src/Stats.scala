package repro.perfbench

/** Order statistics and the result line. */
object Stats {

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted; val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** Nearest-rank percentile `p` (0 < p ≤ 100) of a non-empty sample. */
  def percentile(xs: Seq[Double], p: Int): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1))
  }

  /** The highest whole percentile that leaves at least ten samples above it,
    * and never below the median: with fewer than twenty samples the tail
    * is the median.
    */
  def tailPercentile(n: Int): Int =
    (50 to 99).reverse.find(p => n - math.ceil(p / 100.0 * n).toInt >= 10).getOrElse(50)

  def nanos[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime
    val r = body
    (r, System.nanoTime - t0)
  }

  /** Median time of one call of `body` over `reps` repetitions. */
  def medianNs(reps: Int)(body: => Any): Double =
    median((1 to reps).map(_ => nanos(body)._2.toDouble))

  final case class Metric(name: String, value: Double, unit: String)

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.lang.Double.toString(v)

  /** The benchmark's result line: `correct`, `attempted`, `failed`, `metrics`. */
  def resultJson(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
