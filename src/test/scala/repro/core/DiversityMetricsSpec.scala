package repro.core

import repro.SparkSpec

class DiversityMetricsSpec extends SparkSpec {

  private val q = Vector(Array(1.0, 0.0), Array(0.0, 1.0))
  private val sel = Vector(Array(-1.0, 0.0), Array(0.0, -1.0))

  test("averageDiversity matches hand computation") {
    // cross: δ(q1,t1)=2, δ(q1,t2)=1, δ(q2,t1)=1, δ(q2,t2)=2; within: δ(t1,t2)=1.
    val v = DiversityMetrics.averageDiversity(q, sel)
    assert(math.abs(v - 7.0 / 4.0) < 1e-9)
  }

  test("minDiversity matches hand computation") {
    assert(math.abs(DiversityMetrics.minDiversity(q, sel) - 1.0) < 1e-9)
  }

  test("identical selected tuples give zero min diversity") {
    val dup = Vector(Array(1.0, 0.0), Array(1.0, 0.0))
    assert(math.abs(DiversityMetrics.minDiversity(q, dup)) < 1e-9)
  }

  test("a selected tuple equal to a query tuple gives zero min diversity") {
    val v = DiversityMetrics.minDiversity(q, Vector(Array(1.0, 0.0), Array(-1.0, 0.0)))
    assert(math.abs(v) < 1e-9)
  }

  test("empty selection is rejected") {
    intercept[IllegalArgumentException](DiversityMetrics.averageDiversity(q, Vector.empty))
    intercept[IllegalArgumentException](DiversityMetrics.minDiversity(q, Vector.empty))
  }

  test("single selected tuple with no query needs at least one distance") {
    intercept[IllegalArgumentException](
      DiversityMetrics.minDiversity(Vector.empty, Vector(Array(1.0))))
  }
}
