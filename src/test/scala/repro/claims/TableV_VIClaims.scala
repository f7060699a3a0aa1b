package repro.claims

import repro.{Configs, SparkSpec}
import repro.harness.{DiffSet, Tables}

/** Reproduces Tables V and VI: data mining topics by graph affinity.
  *
  * Paper Table V — emerging: social networks; large scale; matrix
  * factorization; semi supervised learning; unsupervised feature selection.
  * Disappearing: association rules; knowledge discovery; support vector
  * machines; inductive logic programming; intrusion detection.
  * Table VI — G1: time series; SVM; feature selection; decision trees;
  * nearest neighbor. G2: social networks; time series; large scale; feature
  * selection; semi supervised learning. (EXPERIMENTS.md discusses the
  * paper-internal inconsistency that puts the disappeared topics on top of
  * our G1 list.)
  */
abstract class TableV_VIClaims(sets: => Seq[DiffSet]) extends SparkSpec {

  private lazy val t = Tables.tableV_VI(sets)
  private def words(topic: (Seq[(String, Double)], Double)): Set[String] = topic._1.map(_._1).toSet

  /** The four topic lists as text. */
  def rendered: String = Seq(
    Tables.renderTopics("Table V emerging", t.emerging),
    Tables.renderTopics("Table V disappearing", t.disappearing),
    Tables.renderTopics("Table VI G1 (early period)", t.g1Top),
    Tables.renderTopics("Table VI G2 (recent period)", t.g2Top),
  ).mkString("== Tables V / VI\n", "\n", "")

  test("top emerging topic is {social, networks} with f ~ 0.994") {
    assert(words(t.emerging.head) == Set("social", "networks"))
    assert(math.abs(t.emerging.head._2 - 0.994) < 1e-3)
  }

  test("emerging top-5 matches the paper's topics in order") {
    val expected = Seq(
      Set("social", "networks"),
      Set("large", "scale"),
      Set("matrix", "factorization"),
      Set("semi", "supervised", "learning"),
      Set("unsupervised", "feature", "selection"),
    )
    assert(t.emerging.map(words) == expected, t.emerging.map(words).toString)
  }

  test("top disappearing topic is {mining, association, rules} with f in (2.5, 3.5)") {
    assert(words(t.disappearing.head) == Set("mining", "association", "rules"))
    assert(t.disappearing.head._2 > 2.5 && t.disappearing.head._2 < 3.5, s"f=${t.disappearing.head._2}")
  }

  test("disappearing top-5 matches the paper's topics in order") {
    val expected = Seq(
      Set("mining", "association", "rules"),
      Set("knowledge", "discovery"),
      Set("support", "vector", "machines"),
      Set("logic", "inductive", "programming"),
      Set("intrusion", "detection"),
    )
    assert(t.disappearing.map(words) == expected, t.disappearing.map(words).toString)
  }

  test("G2 alone ranks {social, networks} first but keeps the stale hot topics") {
    assert(words(t.g2Top.head) == Set("social", "networks"))
    val all = t.g2Top.map(words)
    assert(all.contains(Set("time", "series")), "paper: rank 2")
    assert(all.contains(Set("large", "scale")))
    assert(all.contains(Set("feature", "selection")))
  }

  test("{time, series} cooled down: affinity 1.185 in G1 vs 1.049 in G2 (paper Section VI-C)") {
    val f1 = t.g1Top.find(x => words(x) == Set("time", "series")).map(_._2)
    val f2 = t.g2Top.find(x => words(x) == Set("time", "series")).map(_._2)
    assert(f1.isDefined && f2.isDefined)
    assert(math.abs(f1.get - 1.185) < 1e-3)
    assert(math.abs(f2.get - 1.049) < 1e-3)
  }

  test("G1 alone would mislead: its top topics are not the emerging ones (the paper's motivation)") {
    val g1Sets = t.g1Top.map(words)
    assert(!g1Sets.contains(Set("social", "networks")))
    assert(g1Sets.contains(Set("time", "series")))
  }
}

class TableV_VITiny extends TableV_VIClaims(Configs.tiny)
