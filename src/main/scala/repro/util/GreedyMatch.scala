package repro.util

/** Greedy maximum-weight bipartite matching of query columns to table
  * columns, shared by Starmie-style table search, the Starmie (B) aligner
  * and D3L: repeatedly take the best-scoring pair whose query and table
  * columns are both still free, ties broken by ascending (qj, tj).
  */
object GreedyMatch {

  /** Query column `qj` matched to table column `tj` at `score`. */
  final case class Pair(qj: Int, tj: Int, score: Double)

  /** Matched pairs of a rectangular query-by-table score matrix, in greedy
    * order (ascending `(-score, qj, tj)` under `java.lang.Double.compare`).
    * One-to-one; min(rows, cols) pairs.
    */
  def apply(scores: Array[Array[Double]]): Vector[Pair] = {
    val n = scores.length
    val m = if (n == 0) 0 else scores(0).length
    val usedQ = new Array[Boolean](n)
    val usedT = new Array[Boolean](m)
    val out = Vector.newBuilder[Pair]
    var left = math.min(n, m)
    while (left > 0) {
      // Scanning in (qj, tj) order with a strict comparison keeps the
      // smallest (qj, tj) among equal scores.
      var bq = -1; var bt = -1; var best = 0.0
      var qj = 0
      while (qj < n) {
        if (!usedQ(qj)) {
          val row = scores(qj)
          var tj = 0
          while (tj < m) {
            if (!usedT(tj) && (bq < 0 || java.lang.Double.compare(-row(tj), -best) < 0)) {
              bq = qj; bt = tj; best = row(tj)
            }
            tj += 1
          }
        }
        qj += 1
      }
      usedQ(bq) = true; usedT(bt) = true
      out += Pair(bq, bt, best)
      left -= 1
    }
    out.result()
  }
}
