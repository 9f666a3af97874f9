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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Optional, Sequence

from .core import (
    Collection,
    Instance,
    Lottery,
    Menu,
    RationalLike,
    Value,
    _members,
    constant_menu,
    unit_weight,
)
from .comparative import CheckReport, _scan
from .criteria import Criterion, collection_maxmin_gap
from .errors import BadWeightError, ValidationError
from .evaluation import mix_lotteries


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
    """Compute both aggregates of ``b_F`` over the collection: `_bands` for one menu."""
    corpus = _members((F,), Menu)
    return _bands(Criterion(inst, coll), corpus)[0]


def _bands(cmp: Criterion, corpus: Sequence[Menu]) -> list[ScenarioBand]:
    """Every menu's scenario band over *cmp*'s collection, read from its benefit table:
    each menu's row over the distinct generators, scaled to one denominator, and each
    member's generator numbers, ``cmp._indices``, pick the member's min and max."""
    bands = []
    for row in cmp._table(corpus):
        common = lcm(*[den for _, den in row])
        scaled = [num * (common // den) for num, den in row]
        groups = [[scaled[k] for k in member] for member in cmp._indices]
        maxmin, minmax = max(map(min, groups)), min(map(max, groups))
        bands.append(ScenarioBand(Fraction(maxmin, common), Fraction(minmax, common)))
    return bands


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
        """The menu's score: its weight on the maxmin aggregate, the rest on minmax.

        A weight of exactly 1 or 0 (always so under `cautious` and
        `optimistic`) selects one aggregate, with no arithmetic.
        """
        alpha = self.weight_for(menu, band)
        if alpha == 1:
            return band.maxmin
        if alpha == 0:
            return band.minmax
        return alpha * band.maxmin + (1 - alpha) * band.minmax


def rationalized_value(
    F: Menu,
    coll: Collection,
    policy: AlphaPolicy,
    inst: Instance,
) -> Value:
    """Score a menu by the policy's blend of its two scenario aggregates."""
    _members((policy,), AlphaPolicy)
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
    """Rank menus by rationalized value, descending; equal values share a rank.

    Each entry of *corpus* must be a `Menu`, *policy* an `AlphaPolicy` and each of
    *names* a distinct string.  The bands are decided in one pass (`_bands`).
    """
    corpus = _members(corpus, Menu)
    _members((policy,), AlphaPolicy)
    if not corpus:
        raise ValidationError("ranking needs at least one menu")
    names = _members([f"menu{i + 1}" for i in range(len(corpus))] if names is None else names, str)
    if len(names) != len(corpus):
        raise ValidationError("need exactly one name per menu")
    seen = set()
    for name in names:
        if name in seen:
            raise ValidationError(f"duplicate menu name {name!r}")
        seen.add(name)
    bands = _bands(Criterion(inst, coll), corpus)
    values = [policy.blend(menu, band) for menu, band in zip(corpus, bands)]
    # Sort on the values as integers over their common denominator.
    common = lcm(*[value.denominator for value in values])
    keys = [value.numerator * (common // value.denominator) for value in values]
    scored = sorted(zip(keys, names, corpus, values, bands), key=lambda item: (-item[0], item[1]))
    first: dict[int, int] = {}  # each value's rank: the position where it first occurs
    return [
        RankEntry(name=name, menu=menu, value=value, band=band, rank=first.setdefault(key, i))
        for i, (key, name, menu, value, band) in enumerate(scored, start=1)
    ]


def utility_grid_lotteries(inst: Instance, steps: int = 8) -> list[Lottery]:
    """Lotteries whose utilities form an even rational grid over the utility range.

    Used as witness outcomes when checking consistency of a ranking: the
    grid spans from the worst to the best prize utility in ``steps`` equal
    increments.
    """
    _members((inst,), Instance)
    if not isinstance(steps, int) or isinstance(steps, bool):
        raise ValidationError(f"steps must be an int, got {steps!r}")
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
      strictly above G.  A constant menu is worth ``u(x)`` at every
      structure, so ``robust_strict(F, x)`` iff ``u(x) < band_low(F)`` and
      ``robust_strict(x, G)`` iff ``u(x) > band_high(G)``: this is decided on
      the bands of the corpus, read in one pass (`_bands`) from the rows
      *comparator* builds or already holds, which raises on a menu it
      cannot evaluate.

    The lottery grid is a sound partial check: it can miss separating
    outcomes but never reports a spurious failure.  Each entry of *corpus*
    must be a `Menu` and each of *lotteries* a `Lottery`.  The score is
    read only on the pairs where a condition's antecedent fires, and once per
    distinct menu.
    """
    _members((comparator,), Criterion)
    corpus, lotteries = _members(corpus, Menu), _members(lotteries, Lottery)
    inst, scores, number = comparator.instance, {}, {}

    def value(menu: Menu) -> Value:
        return scores[menu] if menu in scores else scores.setdefault(menu, value_of(menu))

    constant_menus = [constant_menu(inst, x) for x in lotteries]
    utility = {xm: inst.lottery_utility(x) for xm, x in zip(constant_menus, lotteries)}
    pairs = list(itertools.permutations(constant_menus, 2))
    ranked = (
        (p, 1, value(xm) >= value(ym), lambda _, pair=(xm, ym): pair)
        for p, (xm, ym) in enumerate(pairs)
        if utility[xm] >= utility[ym]
    )
    bands = _bands(comparator, corpus)
    cuts = sorted(utility.values())
    below = [bisect_left(cuts, band.low) for band in bands]
    upto = [bisect_right(cuts, band.high) for band in bands]
    keys = [number.setdefault(menu, len(number)) for menu in corpus]  # one per distinct menu
    distinct = [(i, j) for i, F in enumerate(keys) for j, G in enumerate(keys) if F != G]
    separated = (
        (p, 1, value(corpus[i]) > value(corpus[j]), lambda _, pair=(corpus[i], corpus[j]): pair)
        for p, (i, j) in enumerate(distinct)
        if upto[j] < below[i]
    )
    return ConsistencyReport(
        CheckReport("lottery_consistency", *_scan(ranked, len(pairs))),
        CheckReport("robust_strict_consistency", *_scan(separated, len(distinct))),
    )
