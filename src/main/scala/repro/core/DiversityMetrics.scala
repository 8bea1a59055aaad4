package repro.core

import repro.util.VecOps

/** The two adapted diversity measures of §5.4.
  *
  * Average Diversity (Eq. 1): mean of (a) all query↔selected distances and
  * (b) all pairwise distances among the selected, normalized by n + k.
  * Min Diversity (Eq. 2): minimum over the same two distance sets.
  * Query-query distances are excluded (constant across methods).
  * δ is cosine distance, as in the paper.
  */
object DiversityMetrics {

  /** Eq. (1). Requires at least one selected tuple. */
  def averageDiversity(query: Seq[Array[Double]], selected: Seq[Array[Double]]): Double = {
    require(selected.nonEmpty, "no selected tuples")
    val n = query.size; val k = selected.size
    var cross = 0.0
    query.foreach(q => selected.foreach(t => cross += VecOps.cosineDist(q, t)))
    var within = 0.0
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) { within += VecOps.cosineDist(selected(i), selected(j)); j += 1 }
      i += 1
    }
    (cross + within) / (n + k)
  }

  /** Eq. (2). With k = 1 and no query tuples this is undefined; we require
    * a non-empty union of the two distance sets.
    */
  def minDiversity(query: Seq[Array[Double]], selected: Seq[Array[Double]]): Double = {
    require(selected.nonEmpty, "no selected tuples")
    require(query.nonEmpty || selected.size >= 2, "Min Diversity needs at least one distance")
    var m = Double.MaxValue
    query.foreach(q => selected.foreach(t => m = math.min(m, VecOps.cosineDist(q, t))))
    var i = 0
    while (i < selected.size) {
      var j = i + 1
      while (j < selected.size) { m = math.min(m, VecOps.cosineDist(selected(i), selected(j))); j += 1 }
      i += 1
    }
    m
  }
}
