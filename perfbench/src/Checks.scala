package repro.perfbench

import repro.core.{Dust, DustModel}
import repro.util.VecOps

/** Output checks applied to every timed op. Each returns the violations
  * found; an op with any violation counts as failed.
  */
object Checks {

  /** The selection has min(k, |union|) distinct ids, every one drawn from
    * the union and from a searched (or given) table.
    */
  def selection(cfg: Dust.Config, r: Dust.Result): Vector[String] = {
    val ids = r.selected.map(_.id)
    val want = math.min(cfg.k, r.lakeTuples.size)
    val union = r.lakeTuples.map(t => t.id -> t).toMap
    val tables = r.tables.map(_.name).toSet
    Vector(
      if (ids.size != want) Some(s"selected ${ids.size} tuples, expected $want") else None,
      if (ids.distinct.size != ids.size) Some("duplicate ids in selection") else None,
      if (!r.selected.forall(t => union.get(t.id).contains(t))) Some("selected tuple not in the union") else None,
      if (!r.selected.forall(t => tables.contains(t.table))) Some("selected tuple from an unsearched table") else None,
    ).flatten
  }

  /** Re-rank order, recomputed from outside: (min distance to the query,
    * then average distance) is non-increasing along the selection.
    */
  def rerankOrder(op: Op, model: DustModel, r: Dust.Result): Vector[String] = {
    val query = op.query.rows.indices.map(i => model.embed(op.query.rowPairs(i)))
    if (query.isEmpty) return Vector("query has no tuples")
    val keys = r.selected.map { t =>
      val e = model.embed(t.pairs)
      val ds = query.map(q => VecOps.cosineDist(e, q))
      (ds.min, ds.sum / ds.size)
    }
    // Exact comparison: the recomputation repeats the pipeline's arithmetic.
    keys.zip(keys.drop(1)).zipWithIndex.collect {
      case (((mn1, av1), (mn2, av2)), i) if mn2 > mn1 || (mn2 == mn1 && av2 > av1) =>
        s"re-rank order broken at position ${i + 1}"
    }.take(1)
  }

  /** A query answered during warm-up and again when timed selects the same ids. */
  def repeatable(warm: Option[Vector[Long]], r: Dust.Result): Vector[String] =
    warm.filter(_ != r.selected.map(_.id)).map(_ => "warm-up and timed answers differ").toVector
}
