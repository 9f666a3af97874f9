"""One menu-preference rule, the hierarchical (HML) criterion, and its special cases.

Every criterion ranks menus through the benefit-of-information gap
``b_F(pi) - b_G(pi)``.  The hierarchical rule splits the committee into
sub-groups, one credal set each: menu F is weakly preferred to G when some
sub-group prefers it unanimously, i.e. the gap is nonnegative at every
structure of that sub-group's credal set.  `Criterion` implements this rule
over any `Collection`; the other criteria are the same rule over special
collections, built by three constructors:

* SL  (subjective learning, `SlComparator`): one singleton group; a single
  structure decides.  Complete and transitive.
* BML (Bewley multiple learning, `BmlComparator`): one group holding the
  whole credal set; unanimity.  Transitive but possibly incomplete.
* JML (justifiable multiple learning, `JmlComparator`): one singleton group
  per generator; any single structure can justify the ranking.  Complete
  but possibly intransitive.

`HmlComparator` takes the collection as given.  Since the gap is linear in
the structure, its extrema over a credal polytope are attained at
generators, so every min/max below enumerates generators only.  That keeps
the whole pipeline exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ge
from typing import Literal

from .core import (
    Act,
    Collection,
    CredalSet,
    Instance,
    InfoStructure,
    Menu,
    RationalLike,
    Value,
    Verdict,
    mean_posterior,
    mix_structures,
)
from .evaluation import act_value, benefit_of_information


def benefit_gap(F: Menu, G: Menu, pi: InfoStructure, inst: Instance) -> Value:
    """``b_F(pi) - b_G(pi)``."""
    return benefit_of_information(F, pi, inst) - benefit_of_information(G, pi, inst)


def collection_maxmin_gap(F: Menu, G: Menu, coll: Collection, inst: Instance) -> Value:
    """Best sub-group's worst-case gap: max over members of the min over generators."""
    return max(min(benefit_gap(F, G, gen, inst) for gen in member) for member in coll)


def credal_min_gap(F: Menu, G: Menu, credal: CredalSet, inst: Instance) -> Value:
    """Worst-case benefit gap over the credal set (attained at a generator)."""
    return collection_maxmin_gap(F, G, Collection.of_credal_set(credal), inst)


def credal_max_gap(F: Menu, G: Menu, credal: CredalSet, inst: Instance) -> Value:
    """Best-case benefit gap over the credal set (attained at a generator)."""
    return collection_maxmin_gap(F, G, Collection.of_singletons(credal), inst)


@dataclass(frozen=True)
class Criterion:
    """The hierarchical rule over a collection of credal sets.

    F is weakly preferred to G iff some member's generators all give
    ``b_F >= b_G``.  Each menu is read through its row: ``b_F`` at every
    generator of every member, in collection order.  A row is built once
    per menu through the instance's benefit memo and kept in the row table
    ``_rows``; a weak-preference verdict compares two rows once per ordered
    pair ``(F, G)`` and is kept in the pair table ``_pairs``.  The criterion
    owns both tables, so they are freed with it, and neither is pickled or
    copied: a criterion rebuilds from its instance and collection.  Since a
    row evaluates every generator, a menu that cannot be evaluated at one
    of them raises even where another member would already decide the
    verdict.
    """

    instance: Instance
    collection: Collection
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __reduce__(self):
        return (Criterion, (self.instance, self.collection))

    def _row(self, menu: Menu) -> tuple[tuple[Value, ...], ...]:
        row = self._rows.get(menu)
        if row is None:
            inst = self.instance
            row = self._rows[menu] = tuple(
                tuple(benefit_of_information(menu, pi, inst) for pi in member)
                for member in self.collection
            )
        return row

    def weakly_prefers(self, F: Menu, G: Menu) -> bool:
        key = (F, G)
        verdict = self._pairs.get(key)
        if verdict is None:
            verdict = self._pairs[key] = any(
                all(map(ge, f, g)) for f, g in zip(self._row(F), self._row(G))
            )
        return verdict

    def strictly_prefers(self, F: Menu, G: Menu) -> bool:
        return self.weakly_prefers(F, G) and not self.weakly_prefers(G, F)

    def compare(self, F: Menu, G: Menu) -> Verdict:
        return Verdict.from_directions(self.weakly_prefers(F, G), self.weakly_prefers(G, F))


def SlComparator(instance: Instance, structure: InfoStructure) -> Criterion:
    """Subjective learning: the single structure *structure* decides."""
    return Criterion(instance, Collection.of_credal_set(CredalSet.singleton(structure)))


def BmlComparator(instance: Instance, credal: CredalSet) -> Criterion:
    """Unanimity: F wins iff the gap is >= 0 at every generator of *credal*."""
    return Criterion(instance, Collection.of_credal_set(credal))


def JmlComparator(instance: Instance, credal: CredalSet) -> Criterion:
    """Veto: F wins iff the gap is >= 0 at some generator of *credal*."""
    return Criterion(instance, Collection.of_singletons(credal))


def HmlComparator(instance: Instance, collection: Collection) -> Criterion:
    """Hierarchical: F wins if some sub-group unanimously ranks it higher."""
    return Criterion(instance, collection)


def sl_compare(F: Menu, G: Menu, inst: Instance, pi: InfoStructure) -> Verdict:
    """Rank two menus by the benefit of information of a single structure."""
    return SlComparator(inst, pi).compare(F, G)


def bml_compare(F: Menu, G: Menu, inst: Instance, credal: CredalSet) -> Verdict:
    """Unanimity rule; disagreement inside the credal set is ``Verdict.INCOMPARABLE``."""
    return BmlComparator(inst, credal).compare(F, G)


def jml_compare(F: Menu, G: Menu, inst: Instance, credal: CredalSet) -> Verdict:
    """Veto rule: complete by construction, but transitivity can fail."""
    return JmlComparator(inst, credal).compare(F, G)


def hml_compare(F: Menu, G: Menu, inst: Instance, coll: Collection) -> Verdict:
    """Hierarchical rule: F wins if some sub-group unanimously ranks it higher."""
    return HmlComparator(inst, coll).compare(F, G)


def singleton_reduction(
    f: Act,
    g: Act,
    credal: CredalSet,
    mode: Literal["bml", "jml"],
    inst: Instance,
) -> Verdict:
    """Compare two single acts through the priors implied by each generator.

    On singleton menus the learning criteria collapse to their static
    multiple-prior counterparts: each structure matters only through its
    mean posterior.  Must agree with `bml_compare` / `jml_compare` on the
    corresponding singleton menus.
    """
    if mode not in ("bml", "jml"):
        raise ValueError(f"mode must be 'bml' or 'jml', got {mode!r}")
    gaps = []
    for gen in credal:
        prior = mean_posterior(gen)
        gaps.append(act_value(f, prior, inst) - act_value(g, prior, inst))
    if mode == "bml":
        forward = all(gap >= 0 for gap in gaps)
        backward = all(gap <= 0 for gap in gaps)
    else:
        forward = any(gap >= 0 for gap in gaps)
        backward = any(gap <= 0 for gap in gaps)
    return Verdict.from_directions(forward, backward)


def alpha_maxmin_collection(credal: CredalSet, alpha: RationalLike) -> Collection:
    """The collection whose hierarchical rule weighs worst and best cases.

    Mixing the whole credal set toward each of its generators,
    ``{alpha * Pi + (1 - alpha) * {pi} : pi generator of Pi}``, yields a
    hierarchical criterion whose decision value is exactly
    ``alpha * min-gap + (1 - alpha) * max-gap``.
    """
    return Collection(
        CredalSet([mix_structures(gen, anchor, alpha) for gen in credal]) for anchor in credal
    )
