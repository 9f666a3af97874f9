"""Building complete, transitive rankings from the hierarchical criterion.

A hierarchical criterion may stay silent or cycle.  A committee that has to
act anyway can score each menu by blending two dual aggregates of the
benefit of information: the best sub-group's worst case (max of min) and
the most cautious sub-group's best case (min of max).  Any menu-dependent
blend weight in [0, 1] produces a complete transitive ranking that agrees
with the original criterion on lotteries and respects every comparison
that is robust to small perturbations of the data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .core import (
    Collection,
    Instance,
    Lottery,
    Menu,
    RationalLike,
    Value,
    constant_menu,
    unit_weight,
)
from .comparative import _VACUOUS, CheckReport, _each, _scan
from .criteria import Criterion, collection_maxmin_gap
from .errors import BadWeightError, ValidationError
from .evaluation import benefit_of_information, mix_lotteries


@dataclass(frozen=True)
class ScenarioBand:
    """The two dual aggregates of a menu's benefit, ordered as an interval.

    ``maxmin`` is the best sub-group's guaranteed value; ``minmax`` the
    most cautious sub-group's optimistic value.  Either may be the larger
    one, so the band endpoints are ``low = min`` and ``high = max``.
    """

    maxmin: Value
    minmax: Value

    @property
    def low(self) -> Value:
        return min(self.maxmin, self.minmax)

    @property
    def high(self) -> Value:
        return max(self.maxmin, self.minmax)

    @property
    def degenerate(self) -> bool:
        return self.maxmin == self.minmax


def scenario_band(F: Menu, coll: Collection, inst: Instance) -> ScenarioBand:
    """Compute both aggregates of ``b_F`` over the collection, reading each benefit once."""
    rows = [[benefit_of_information(F, gen, inst) for gen in member] for member in coll]
    return ScenarioBand(maxmin=max(map(min, rows)), minmax=min(map(max, rows)))


def robust_strict(F: Menu, G: Menu, coll: Collection, inst: Instance) -> bool:
    """Strict preference that survives small mixtures with arbitrary lotteries.

    Computed in closed form: some sub-group must be unanimously strictly
    for *F*, and no sub-group may weakly favor *G*.
    """
    if collection_maxmin_gap(F, G, coll, inst) <= 0:
        return False
    return collection_maxmin_gap(G, F, coll, inst) < 0


@dataclass(frozen=True)
class AlphaPolicy:
    """How to choose the blend weight ``alpha(F)`` on the maxmin aggregate.

    ``weight_for(menu, band)`` is the weight; build it with a constructor:
      * ``constant``: one fixed weight for every menu.
      * ``cautious``: resolve to the band's low endpoint, whichever
        aggregate that is for the menu at hand.
      * ``optimistic``: resolve to the band's high endpoint.
      * ``custom``: a caller-supplied map or function from menus to weights.
    """

    weight_for: Callable[[Menu, ScenarioBand], Fraction]

    @classmethod
    def constant(cls, value: RationalLike) -> "AlphaPolicy":
        value = unit_weight(value, "constant weight")
        return cls(lambda menu, band: value)

    @classmethod
    def cautious(cls) -> "AlphaPolicy":
        # Full weight on whichever aggregate is the band's low endpoint.
        return cls(lambda menu, band: Fraction(band.maxmin <= band.minmax))

    @classmethod
    def optimistic(cls) -> "AlphaPolicy":
        return cls(lambda menu, band: Fraction(band.maxmin > band.minmax))

    @classmethod
    def custom(cls, chooser: Callable[[Menu], RationalLike] | Mapping[Menu, RationalLike]) -> "AlphaPolicy":
        if isinstance(chooser, Mapping):
            mapping = chooser

            def chooser(menu: Menu) -> RationalLike:
                try:
                    return mapping[menu]
                except KeyError:
                    raise BadWeightError("custom policy has no weight for this menu") from None

        return cls(lambda menu, band: unit_weight(chooser(menu), "policy weight"))

    def blend(self, menu: Menu, band: ScenarioBand) -> Value:
        """The menu's score: its weight on the maxmin aggregate, the rest on minmax."""
        alpha = self.weight_for(menu, band)
        return alpha * band.maxmin + (1 - alpha) * band.minmax


def rationalized_value(
    F: Menu,
    coll: Collection,
    policy: AlphaPolicy,
    inst: Instance,
) -> Value:
    """Score a menu by the policy's blend of its two scenario aggregates."""
    return policy.blend(F, scenario_band(F, coll, inst))


@dataclass(frozen=True)
class RankEntry:
    """One row of a ranking: menus sorted by score, ties sharing a rank."""

    name: str
    menu: Menu
    value: Value
    band: ScenarioBand
    rank: int

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "value": str(self.value),
            "value_approx": float(self.value),
            "band_low": str(self.band.low),
            "band_high": str(self.band.high),
        }


def rank_menus(
    corpus: Sequence[Menu],
    coll: Collection,
    policy: AlphaPolicy,
    inst: Instance,
    names: Optional[Sequence[str]] = None,
) -> list[RankEntry]:
    """Rank menus by rationalized value, descending; equal values share a rank."""
    if not corpus:
        raise ValidationError("ranking needs at least one menu")
    if names is None:
        names = [f"menu{i + 1}" for i in range(len(corpus))]
    if len(names) != len(corpus):
        raise ValidationError("need exactly one name per menu")
    scored = []
    for name, menu in zip(names, corpus):
        band = scenario_band(menu, coll, inst)
        scored.append((name, menu, policy.blend(menu, band), band))
    scored.sort(key=lambda item: (-item[2], item[0]))
    entries: list[RankEntry] = []
    rank = 0
    previous_value: Optional[Fraction] = None
    for position, (name, menu, value, band) in enumerate(scored, start=1):
        if previous_value is None or value != previous_value:
            rank = position
            previous_value = value
        entries.append(RankEntry(name=name, menu=menu, value=value, band=band, rank=rank))
    return entries


def utility_grid_lotteries(inst: Instance, steps: int = 8) -> list[Lottery]:
    """Lotteries whose utilities form an even rational grid over the utility range.

    Used as witness outcomes when checking consistency of a ranking: the
    grid spans from the worst to the best prize utility in ``steps`` equal
    increments.
    """
    if steps < 1:
        raise ValidationError("need at least one grid step")
    worst = Lottery.degenerate(inst.worst_prize())
    best = Lottery.degenerate(inst.best_prize())
    return [mix_lotteries(best, worst, Fraction(k, steps)) for k in range(steps + 1)]


@dataclass(frozen=True)
class ConsistencyReport:
    """Joint result of the two consistency conditions for a ranking."""

    lottery_consistency: CheckReport
    robust_strict_consistency: CheckReport

    @property
    def passed(self) -> bool:
        return self.lottery_consistency.passed and self.robust_strict_consistency.passed


def check_consistency(
    value_of: Callable[[Menu], Value],
    comparator: Criterion,
    corpus: Sequence[Menu],
    lotteries: Sequence[Lottery],
) -> ConsistencyReport:
    """Verify that a menu score respects the first criterion where it must.

    Two conditions:

    * lottery consistency: whenever the criterion weakly ranks lottery x
      over lottery y, the score of their constant menus agrees.
    * robustly strict consistency: whenever some grid lottery x separates
      two menus robustly (F above x above G), the score must put F
      strictly above G.

    The lottery grid is a sound partial check: it can miss separating
    outcomes but never reports a spurious failure.
    """
    inst = comparator.instance
    coll = comparator.collection
    constant_menus = [constant_menu(inst, x) for x in lotteries]
    utility = {xm: inst.lottery_utility(x) for xm, x in zip(constant_menus, lotteries)}

    def lottery_test(xm: Menu, ym: Menu) -> Optional[bool]:
        if utility[xm] < utility[ym]:
            return _VACUOUS
        return value_of(xm) >= value_of(ym)

    def strict_test(F: Menu, G: Menu) -> Optional[bool]:
        if not any(
            robust_strict(F, xm, coll, inst) and robust_strict(xm, G, coll, inst)
            for xm in constant_menus
        ):
            return _VACUOUS
        return value_of(F) > value_of(G)

    pairs = itertools.permutations(constant_menus, 2)
    distinct = ((F, G) for F in corpus for G in corpus if F != G)
    return ConsistencyReport(
        CheckReport("lottery_consistency", *_scan(_each(pairs), lottery_test)),
        CheckReport("robust_strict_consistency", *_scan(_each(distinct), strict_test)),
    )
