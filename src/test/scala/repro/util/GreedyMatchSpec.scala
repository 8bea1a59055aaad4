package repro.util

import repro.SparkSpec
import repro.util.GreedyMatch.Pair

class GreedyMatchSpec extends SparkSpec {

  /** The sort-then-scan formulation the matcher replaces. */
  private def reference(scores: Array[Array[Double]]): Vector[Pair] = {
    val cells = for {
      qj <- scores.indices
      tj <- scores(qj).indices
    } yield (scores(qj)(tj), qj, tj)
    val usedQ = scala.collection.mutable.HashSet.empty[Int]
    val usedT = scala.collection.mutable.HashSet.empty[Int]
    cells.sortBy { case (s, qj, tj) => (-s, qj, tj) }.toVector.collect {
      case (s, qj, tj) if !usedQ.contains(qj) && !usedT.contains(tj) =>
        usedQ += qj; usedT += tj; Pair(qj, tj, s)
    }
  }

  test("highest score is matched first") {
    val m = GreedyMatch(Array(Array(0.2, 0.9), Array(0.8, 0.1)))
    assert(m == Vector(Pair(0, 1, 0.9), Pair(1, 0, 0.8)))
  }

  test("ties resolve by ascending (qj, tj)") {
    assert(GreedyMatch(Array(Array(0.5, 0.9), Array(0.9, 0.1))) ==
      Vector(Pair(0, 1, 0.9), Pair(1, 0, 0.9)))
    assert(GreedyMatch(Array.fill(3, 3)(1.0)).map(p => (p.qj, p.tj)) == Vector((0, 0), (1, 1), (2, 2)))
  }

  test("matching is one-to-one with min(n, m) pairs") {
    val rng = new Rng(7)
    val scores = Array.fill(5, 7)(rng.nextDouble())
    val m = GreedyMatch(scores)
    assert(m.size == 5)
    assert(m.map(_.qj).distinct.size == 5 && m.map(_.tj).distinct.size == 5)
  }

  test("an empty side gives no matches") {
    assert(GreedyMatch(Array.empty[Array[Double]]).isEmpty)
    assert(GreedyMatch(Array.fill(3)(Array.empty[Double])).isEmpty)
  }

  test("non-square score matrices work in both orientations") {
    val wide = Array(Array(0.1, 0.8, 0.3), Array(0.7, 0.9, 0.2))
    // Greedy, not optimal: taking 0.9 first leaves 0.3 for query column 0.
    assert(GreedyMatch(wide) == Vector(Pair(1, 1, 0.9), Pair(0, 2, 0.3)))
    val tall = Array.tabulate(3, 2)((i, j) => wide(j)(i))
    assert(GreedyMatch(tall) == Vector(Pair(1, 1, 0.9), Pair(2, 0, 0.3)))
  }

  test("same pairs, in the same order, as sorting every cell by (-score, qj, tj)") {
    val rng = new Rng(11)
    val values = Array(-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0)
    (1 to 300).foreach { _ =>
      val scores = Array.fill(1 + rng.nextInt(6), rng.nextInt(7))(values(rng.nextInt(values.length)))
      val got = GreedyMatch(scores)
      val want = reference(scores)
      assert(got.map(p => (p.qj, p.tj)) == want.map(p => (p.qj, p.tj)))
      assert(got.map(p => java.lang.Double.doubleToRawLongBits(p.score)) ==
        want.map(p => java.lang.Double.doubleToRawLongBits(p.score)))
    }
  }
}
