package repro.core

import repro.graph.WGraph

import scala.collection.mutable

/** A sparse point on the simplex together with incrementally-maintained
  * products `(Dx)_u`, reusable across many initializations.
  *
  * The graph-affinity objective is `f_D(x) = x^T D x` with gradient
  * `grad_u = 2 (Dx)_u` (Eq. 7). All local-search algorithms (2-coordinate
  * descent, SEA shrink/expansion, refinement) mutate a single instance; reset
  * between initializations touches only the entries that were modified, so a
  * full NewSEA run over thousands of seeds stays `O(total work)` rather than
  * `O(n)` per seed.
  */
final class AffinityState(val g: WGraph) {

  /** Simplex coordinates `x_u`. */
  val x = new Array[Double](g.n)

  /** `(Dx)_u` for every vertex; gradient is `2 * dx(u)`. */
  val dx = new Array[Double](g.n)

  private val touchedList = mutable.ArrayBuffer.empty[Int]
  private val touchedFlag = new Array[Boolean](g.n)

  private val supportList = mutable.ArrayBuffer.empty[Int]
  private val inSupport = new Array[Boolean](g.n)

  @inline private def touch(u: Int): Unit =
    if (!touchedFlag(u)) { touchedFlag(u) = true; touchedList += u }

  /** Current support `S_x = {u | x_u > 0}` (copy, unsorted). */
  def support: Array[Int] = supportList.toArray

  def supportSize: Int = supportList.length

  /** All vertices with a nonzero `x` or `dx` since the last reset. */
  def touched: Array[Int] = touchedList.toArray

  /** Sets `x_u = value`, updating `(Dx)_v` of all neighbors incrementally. */
  def setX(u: Int, value: Double): Unit = {
    val delta = value - x(u)
    if (delta == 0.0) return
    x(u) = value
    touch(u)
    if (value > 0.0 && !inSupport(u)) { inSupport(u) = true; supportList += u }
    if (value == 0.0 && inSupport(u)) {
      inSupport(u) = false
      val idx = supportList.indexOf(u)
      supportList.remove(idx)
    }
    g.foreachNbr(u) { (v, w) => dx(v) += w * delta; touch(v) }
  }

  /** Objective `f_D(x) = sum_u x_u (Dx)_u`, computed over the support. */
  def f: Double = {
    var s = 0.0
    var i = 0
    while (i < supportList.length) { val u = supportList(i); s += x(u) * dx(u); i += 1 }
    s
  }

  /** Sum of `x_u` over the support (should be ~1; used by invariant checks). */
  def mass: Double = {
    var s = 0.0
    var i = 0
    while (i < supportList.length) { s += x(supportList(i)); i += 1 }
    s
  }

  /** Renormalizes `x` to unit mass (guards against drift after many updates). */
  def renormalize(): Unit = {
    val m = mass
    if (m > 0.0 && math.abs(m - 1.0) > 1e-12) {
      val sup = support
      sup.foreach(u => setX(u, x(u) / m))
    }
  }

  /** Zeroes every touched entry, returning the state to `x = 0`. */
  def reset(): Unit = {
    var i = 0
    while (i < touchedList.length) {
      val u = touchedList(i)
      x(u) = 0.0; dx(u) = 0.0; touchedFlag(u) = false; inSupport(u) = false
      i += 1
    }
    touchedList.clear()
    supportList.clear()
  }

  /** Starts from the unit vector `e_u`. */
  def initAt(u: Int): Unit = { reset(); setX(u, 1.0) }

  /** Snapshot of the current solution. */
  def result: AffinityResult =
    AffinityResult(support.sorted.map(u => (u, x(u))), f)
}

/** A DCSGA solution: `(vertex, simplex weight)` pairs plus the affinity value
  * `f_D(x)` attained.
  */
final case class AffinityResult(embedding: Array[(Int, Double)], f: Double) {
  def supportSet: Array[Int] = embedding.map(_._1)
  override def toString: String =
    embedding.map { case (u, w) => f"$u(${w}%.3f)" }.mkString("{", ", ", s"} f=$f%.4f")
}
