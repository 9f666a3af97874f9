"""One menu-preference rule, the hierarchical (HML) criterion, and its special cases.

Every criterion ranks menus through the benefit-of-information gap
``b_F(pi) - b_G(pi)``.  The hierarchical rule splits the committee into
sub-groups, one credal set each: menu F is weakly preferred to G when some
sub-group prefers it unanimously, i.e. the gap is nonnegative at every
structure of that sub-group's credal set.  `Criterion` implements this rule
over any `Collection`, in one place, and is the only way to rank menus;
hold one while ranking so its benefit table serves every pair.  The other
criteria are the same rule over special collections, built by three constructors:

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
from fractions import Fraction
from math import lcm
from operator import and_, or_
from typing import Sequence

from .core import (
    Collection,
    CredalSet,
    Instance,
    InfoStructure,
    Menu,
    RationalLike,
    Value,
    Verdict,
    _members,
    mix_structures,
)
from .evaluation import _at_most, _benefit, _benefit_rows


def benefit_gap(F: Menu, G: Menu, pi: InfoStructure, inst: Instance) -> Value:
    """``b_F(pi) - b_G(pi)``, from the two benefits' integer pairs."""
    (a, b), (c, d) = _benefit(F, pi, inst), _benefit(G, pi, inst)
    return Fraction(a * d - c * b, b * d)


def collection_maxmin_gap(F: Menu, G: Menu, coll: Collection, inst: Instance) -> Value:
    """Best sub-group's worst-case gap: max over members of the min over generators."""
    _members((coll,), Collection)
    return max(min(benefit_gap(F, G, gen, inst) for gen in member) for member in coll)


@dataclass(frozen=True)
class Criterion:
    """The hierarchical rule over a collection of credal sets.

    F is weakly preferred to G iff some member's generators all give
    ``b_F >= b_G``.  The collection's distinct generators are numbered once
    (``_generators``; each member's numbers are in ``_indices``), and each
    menu is read through its row in the benefit table ``_rows``: ``b_F`` at
    each distinct generator, as an integer pair ``(numerator, denominator)``,
    built once by `_table` through the instance's benefit memo.  The
    criterion owns and frees the table, which is neither pickled nor copied;
    the relation and the scenario bands read it.  Weak preference has one
    rule, `_relation`, which decides it between every pair of a menu sequence
    at once; `weakly_prefers`, `strictly_prefers` and `compare` are its
    two-menu case.  A menu that cannot be evaluated at some generator raises
    even where another member would already decide the verdict.  A subclass
    changes the rule by overriding `_relation` alone.
    """

    instance: Instance
    collection: Collection
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _generators: tuple = field(init=False, repr=False, compare=False)
    _indices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _members((self.instance,), Instance)
        _members((self.collection,), Collection)
        index: dict = {}
        indices = tuple(tuple(index.setdefault(g, len(index)) for g in m) for m in self.collection)
        object.__setattr__(self, "_generators", tuple(index))
        object.__setattr__(self, "_indices", indices)

    def __reduce__(self):
        return (Criterion, (self.instance, self.collection))

    def _table(self, menus: Sequence[Menu]) -> list[list[tuple[int, int]]]:
        """The rows of *menus*; the missing ones, checked to be menus, in one kernel call."""
        rows = self._rows
        missing = _members(dict.fromkeys(menu for menu in menus if menu not in rows), Menu)
        rows.update(zip(missing, _benefit_rows(missing, self._generators, self.instance)))
        return [rows[menu] for menu in menus]

    def _relation(self, menus: Sequence[Menu]) -> list[int]:
        """Weak preference between every ordered pair of *menus*, as one bitset per
        position: bit j of entry i is set iff ``menus[i]`` is weakly preferred to ``menus[j]``.

        In each distinct generator's column, one sort of the benefits, as
        integers over their common denominator, gives every position the
        positions whose benefit is no larger; these sets are AND-ed over a
        member's generators and OR-ed over the members.
        """
        if not menus:
            return []
        columns = []
        for column in zip(*self._table(menus)):
            common = lcm(*[den for _, den in column])
            columns.append(_at_most([num * (common // den) for num, den in column]))
        relation = [0] * len(menus)
        for member in self._indices:
            agree = [-1] * len(menus)
            for k in member:
                agree = list(map(and_, agree, columns[k]))
            relation = list(map(or_, relation, agree))
        return relation

    def weakly_prefers(self, F: Menu, G: Menu) -> bool:
        """`_relation` over ``(F, G)``: bit 1 of *F*'s entry."""
        return bool(self._relation((F, G))[0] & 2)

    def strictly_prefers(self, F: Menu, G: Menu) -> bool:
        return self.compare(F, G) is Verdict.STRICT_BETTER

    def compare(self, F: Menu, G: Menu) -> Verdict:
        forward, backward = self._relation((F, G))
        return Verdict.from_directions(forward & 2, backward & 1)


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


def alpha_maxmin_collection(credal: CredalSet, alpha: RationalLike) -> Collection:
    """The collection whose hierarchical rule weighs worst and best cases.

    Mixing the whole credal set toward each of its generators,
    ``{alpha * Pi + (1 - alpha) * {pi} : pi generator of Pi}``, yields a
    hierarchical criterion whose decision value is exactly
    ``alpha * min-gap + (1 - alpha) * max-gap``.
    """
    _members((credal,), CredalSet)
    return Collection(
        CredalSet([mix_structures(gen, anchor, alpha) for gen in credal]) for anchor in credal
    )
