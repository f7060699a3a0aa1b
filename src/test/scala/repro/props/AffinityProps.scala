package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import repro.TestKit
import repro.core._

/** Randomized invariants of the DCSGA machinery. */
object AffinityProps extends Properties("DCSGA") {

  private val genPositive = for {
    n <- Gen.choose(3, 14)
    p <- Gen.choose(0.2, 0.7)
    seed <- Gen.choose(0L, 100000L)
  } yield TestKit.randomPositive(n, p, 2.0, seed)

  private val genSigned = for {
    n <- Gen.choose(3, 14)
    p <- Gen.choose(0.2, 0.7)
    seed <- Gen.choose(0L, 100000L)
  } yield TestKit.randomSigned(n, p, 2.0, seed)

  /** Signed, positive, +-1 and dense +-1 graphs with a planted +1 clique
    * (tiny Douban's ego-nets are of the last kind).
    */
  private val genExpandable = for {
    n <- Gen.choose(3, 40)
    p <- Gen.choose(0.2, 0.7)
    seed <- Gen.choose(0L, 100000L)
    kind <- Gen.choose(0, 3)
  } yield kind match {
    case 0 => TestKit.randomSigned(n, p, 2.0, seed)
    case 1 => TestKit.randomPositive(n, p, 2.0, seed)
    case 2 => TestKit.randomDiscrete(n, p, 0.5, seed)
    case _ =>
      val clique = new scala.util.Random(seed).shuffle((0 until n).toList).take(math.max(2, n / 4))
      TestKit.withPlantedClique(TestKit.randomDiscrete(n, 0.42, 0.5, seed), clique)
  }

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    java.util.Arrays.equals(a.map(java.lang.Double.doubleToRawLongBits), b.map(java.lang.Double.doubleToRawLongBits))

  property("expand leaves bit for bit the state of the closure-and-filter reference") =
    Prop.forAll(genExpandable) { g =>
      // from every seed, two fresh states run SEACD's rounds in lockstep, one expanding with each form
      (0 until g.n).forall { seed =>
        val a = new AffinityState(g); val b = new AffinityState(g)
        a.initAt(seed); b.initAt(seed)
        var same = true
        var done = false
        var rounds = 0
        while (same && !done && rounds < 1000) {
          CoordinateDescent.descend(a, a.support, CoordinateDescent.epsFor(a.supportSize))
          CoordinateDescent.descend(b, b.support, CoordinateDescent.epsFor(b.supportSize))
          val tol = math.max(1e-9, math.abs(a.f) * 1e-9)
          val z = Expansion.candidates(a, tol)
          same = z.sameElements(Expansion.candidates(b, tol))
          if (z.isEmpty) done = true
          else if (same) {
            val fa = Expansion.expand(a, z)
            val fb = TestKit.closureExpand(b, z)
            same = sameBits(Array(fa), Array(fb)) && sameBits(a.x, b.x) && sameBits(a.dx, b.dx) &&
              a.touched.sameElements(b.touched) && a.support.sameElements(b.support)
          }
          rounds += 1
        }
        same && done
      }
    }

  property("descent preserves the simplex and never decreases f") =
    Prop.forAll(genSigned, Gen.choose(0L, 9999L)) { (g, s) =>
      val st = new AffinityState(g)
      val rnd = new scala.util.Random(s)
      val raw = Array.fill(g.n)(rnd.nextDouble() + 1e-6)
      val sum = raw.sum
      (0 until g.n).foreach(u => st.setX(u, raw(u) / sum))
      val f0 = st.f
      CoordinateDescent.descend(st, (0 until g.n).toArray, 1e-9)
      st.f >= f0 - 1e-9 && math.abs(st.mass - 1.0) < 1e-6
    }

  property("SEACD + Refinement yields a positive clique with f >= 0") =
    Prop.forAll(genPositive, Gen.choose(0, 13)) { (g, seed) =>
      val st = new AffinityState(g)
      st.initAt(seed % g.n)
      Seacd.run(st)
      val r = Refinement.run(st)
      g.isPositiveClique(r.supportSet.toSeq) && r.f >= -1e-12
    }

  property("refined f never exceeds the brute-force optimum") =
    Prop.forAll(genPositive) { g =>
      val (_, opt) = TestKit.bruteMaxAffinity(g)
      val st = new AffinityState(g)
      var best = 0.0
      for (u <- 0 until g.n) {
        st.initAt(u)
        Seacd.run(st)
        best = math.max(best, Refinement.run(st).f)
      }
      best <= opt + 1e-3
    }

  property("NewSEA smart bound prunes without losing quality") =
    Prop.forAll(genPositive) { g =>
      val smart = NewSea.run(g)
      val (all, _) = NewSea.allInits(g, useReplicator = false)
      math.abs(smart.best.f - all.best.f) < 1e-6 && smart.initsUsed <= g.n
    }

  /** Signed and +-1 difference graphs, with all-positive ones among them. */
  private val genDiff = Gen.oneOf(genSigned, for {
    n <- Gen.choose(3, 14)
    p <- Gen.choose(0.2, 0.7)
    pPos <- Gen.choose(0.3, 1.0)
    seed <- Gen.choose(0L, 100000L)
  } yield TestKit.randomDiscrete(n, p, pPos, seed))

  property("DCSGA on G_D equals DCSGA on G_{D+}") =
    Prop.forAll(genDiff, genPositive) { (g, pos) =>
      val gp = g.positivePart
      def sameResult(a: AffinityResult, b: AffinityResult) =
        a.embedding.sameElements(b.embedding) && sameBits(Array(a.f), Array(b.f))
      def same(a: NewSea.MultiResult, b: NewSea.MultiResult) =
        sameResult(a.best, b.best) && a.initsUsed == b.initsUsed && a.errors == b.errors
      val sameAllInits = Seq(false, true).forall { useReplicator =>
        val (a, as) = NewSea.allInits(g, useReplicator)
        val (b, bs) = NewSea.allInits(gp, useReplicator)
        same(a, b) && as.length == bs.length && as.zip(bs).forall { case (x, y) => sameResult(x, y) }
      }
      same(NewSea.run(g), NewSea.run(gp)) && sameAllInits &&
        NewSea.smartBounds(g).sameElements(NewSea.smartBounds(gp)) &&
        (gp.positivePart eq gp) && (pos.positivePart eq pos)
    }

  property("result embedding weights sum to ~1 with positive entries") =
    Prop.forAll(genPositive, Gen.choose(0, 13)) { (g, seed) =>
      val st = new AffinityState(g)
      st.initAt(seed % g.n)
      Seacd.run(st)
      val r = st.result
      math.abs(r.embedding.map(_._2).sum - 1.0) < 1e-6 && r.embedding.forall(_._2 > 0)
    }

  property("expansion never fires at a strict global KKT point") =
    Prop.forAll(genPositive, Gen.choose(0, 13)) { (g, seed) =>
      val st = new AffinityState(g)
      st.initAt(seed % g.n)
      Seacd.run(st)
      Expansion.candidates(st, math.max(1e-9, st.f * 1e-9)).isEmpty
    }

  property("the incremental Dx and support match a recompute after every seed") =
    Prop.forAll(genPositive, Gen.choose(0L, 9999L), Gen.oneOf(false, true)) { (g, s, useReplicator) =>
      val st = new AffinityState(g)
      val rnd = new scala.util.Random(s)
      Seq.fill(2 * g.n)(rnd.nextInt(g.n)).forall { u =>
        st.initAt(u)
        if (useReplicator) ReplicatorSea.run(st) else Seacd.run(st)
        Refinement.run(st)
        (0 until g.n).forall { v =>
          var dx = 0.0
          g.foreachNbr(v)((t, w) => dx += w * st.x(t))
          math.abs(st.dx(v) - dx) < 1e-9
        } && st.support.toSet == (0 until g.n).filter(st.x(_) > 0.0).toSet
      }
    }

  property("a seed's result does not depend on the state's history") =
    Prop.forAll(genPositive, Gen.choose(0L, 9999L), Gen.oneOf(false, true)) { (g, s, useReplicator) =>
      def fromSeed(st: AffinityState, u: Int): AffinityResult = {
        st.initAt(u)
        if (useReplicator) ReplicatorSea.run(st) else Seacd.run(st)
        Refinement.run(st)
      }
      val reused = new AffinityState(g)
      val sameAsFresh = new scala.util.Random(s).shuffle((0 until g.n).toList).forall { u =>
        val a = fromSeed(reused, u)
        val b = fromSeed(new AffinityState(g), u)
        a.embedding.sameElements(b.embedding) && a.f == b.f
      }
      reused.reset()
      sameAsFresh && reused.supportSize == 0 && reused.support.isEmpty &&
        (0 until g.n).forall(u => reused.x(u) == 0.0 && reused.dx(u) == 0.0)
    }

  /** Families of supports for `dropSubsetCliques`: each support is a random
    * subset of eight vertex ids at `offset` (empty and singletons among
    * them) or a copy, a prefix, a reordering or a one-vertex extension of an
    * earlier one. Copies repeat a set in the same or another order, prefixes
    * and extensions make nested chains, and `f` takes four values, so ties
    * are common.
    */
  private val genSupports: Gen[Seq[AffinityResult]] = for {
    offset <- Gen.oneOf(0, 1 << 20, Int.MaxValue - 8)
    size <- Gen.choose(0, 40)
    seed <- Gen.choose(0L, 100000L)
  } yield {
    val rnd = new scala.util.Random(seed)
    val supports = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
    for (_ <- 0 until size) supports += {
      lazy val prev = supports(rnd.nextInt(supports.length))
      if (supports.isEmpty || rnd.nextInt(5) == 0) rnd.shuffle((0 until 8).toList).take(rnd.nextInt(6)).map(offset + _).toArray
      else rnd.nextInt(4) match {
        case 0 => prev
        case 1 => prev.take(rnd.nextInt(prev.length + 1))
        case 2 => rnd.shuffle(prev.toList).toArray
        case _ =>
          val missing = (offset until offset + 8).filterNot(prev.contains)
          if (missing.isEmpty) prev else prev :+ missing(rnd.nextInt(missing.length))
      }
    }
    supports.toSeq.map(s => AffinityResult(s.map(u => (u, 1.0 / s.length)), rnd.nextInt(4) * 0.5))
  }

  property("dropSubsetCliques returns the all-pairs scan's cliques in its order") =
    Prop.forAll(genSupports) { cs =>
      val got = NewSea.dropSubsetCliques(cs)
      val want = TestKit.allPairsDropSubsetCliques(cs)
      got.length == want.length && got.zip(want).forall { case (a, b) => a.embedding.sameElements(b.embedding) && a.f == b.f }
    }
}
