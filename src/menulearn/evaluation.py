"""Numeric substrate: menu values under posteriors and information structures.

The central quantity is the benefit of information ``b_F(pi)``: the expected
utility of a member who will observe her posterior (drawn according to
``pi``), then pick the best act from the menu ``F``.  Every function here is
pure in its inputs and returns exact Fractions.  The arithmetic runs on
Python ints: each act and each posterior is one integer vector over the
instance's states ``inst.states`` with one denominator (``n_f[s] / d_f`` and
``m_p[s] / D_p``), so a menu's value under a posterior is an integer dot
product per act and a max taken by cross-multiplication.  Two memos live
on the `Instance` and are freed with it: those vectors
(`Instance._numerators`) and each ``(menu, structure)`` benefit
(`Instance._benefits`, one exact `Fraction` per entry).  Statewise
dominance has one rule, `_dominance_relation`, which decides it between
every pair of a sequence of menus at once, as one bitset per menu;
`dominates` is its two-menu case.  The mixers share one act mixer,
`_mix_acts`, and one lottery mixer that builds each lottery pair once into
a table: the public mixers' table lives for one call, the audit's
(`audit._mixed`) on the instance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import and_, mul, or_
from typing import Callable, Sequence

from .core import (
    Act,
    Instance,
    InfoStructure,
    Lottery,
    Menu,
    Posterior,
    RationalLike,
    Value,
    _members,
    _unknown_states,
    as_fraction,
    unit_weight,
    validate_posterior,
)
from .errors import BadWeightError, DimensionMismatchError, ValidationError


def _vector(key: Act | Posterior, inst: Instance) -> tuple[int, tuple[int, ...]]:
    """``(d, v)``: act or posterior *key* reads ``v[i] / d`` in state ``inst.states[i]``.

    Memoized on *inst*.  An act's entries are its lottery utilities, so it
    must cover exactly the instance's states; a posterior's are its masses,
    so it may name no other state.  ``d`` is the lcm of the entries' denominators.
    """
    table = inst._numerators
    entry = table.get(key)
    if entry is None:
        if isinstance(key, Act):
            parts = [inst._lottery_numerator(key.lottery(state)) for state in inst.states]
            if len(key.outcomes) > len(parts):
                raise DimensionMismatchError(_unknown_states(key, inst))
        else:
            validate_posterior(key, inst)
            parts = [(prob.numerator, prob.denominator) for prob in map(key.prob, inst.states)]
        common = lcm(*[den for _, den in parts])
        entry = table[key] = (common, tuple([num * (common // den) for num, den in parts]))
    return entry


def _best(
    acts: Sequence[tuple[int, tuple[int, ...]]], p: tuple[int, tuple[int, ...]]
) -> tuple[int, int]:
    """``(v, d)``: the best of the act vectors *acts* is worth ``v / d`` under the
    posterior vector *p* (each a `_vector`); the max is cross-multiplied."""
    scale, masses = p
    best, best_den = None, 1
    for den, utils in acts:
        value = sum(map(mul, masses, utils))
        if best is None or value * best_den > best * den:
            best, best_den = value, den
    return best, scale * best_den


def act_value(f: Act, p: Posterior, inst: Instance) -> Value:
    """Expected utility of act *f* under posterior *p*: the value of the menu ``{f}``."""
    return support_value(Menu((f,)), p, inst)


def support_value(menu: Menu, p: Posterior, inst: Instance) -> Value:
    """Value of the menu once posterior *p* is known: the best act's expected utility."""
    _members((menu,), Menu)
    _members((p,), Posterior)
    masses = _vector(p, inst)
    return Fraction(*_best([_vector(f, inst) for f in menu], masses))


def benefit_of_information(menu: Menu, pi: InfoStructure, inst: Instance) -> Value:
    """Expected value of the menu before learning, for the prediction *pi*.

    Averages the post-learning menu value over the posteriors that *pi*
    anticipates.  A singleton menu yields the expected utility of its act
    under the implied prior; a larger menu can only do better.  On a memo
    miss (an unhashable key is one) the argument types are checked, then
    each posterior's and each act's vector is read once, the posteriors'
    first, and the sum is kept as one unreduced integer pair, reduced once.
    """
    key = (menu, pi)
    try:
        total = inst._benefits.get(key)
    except TypeError:
        total = None
    if total is None:
        _members((menu,), Menu)
        _members((pi,), InfoStructure)
        support = [(_vector(posterior, inst), weight) for posterior, weight in pi.support]
        acts = [_vector(f, inst) for f in menu]
        num, den = 0, 1
        for masses, weight in support:
            value, term_den = _best(acts, masses)
            term_den *= weight.denominator
            num = num * term_den + weight.numerator * value * den
            den *= term_den
        total = inst._benefits[key] = Fraction(num, den)
    return total


def mix_lotteries(x: Lottery, y: Lottery, alpha: RationalLike) -> Lottery:
    """The lottery ``alpha x + (1 - alpha) y``."""
    _members((x, y), Lottery)
    return _mix_lotteries(x, y, unit_weight(alpha, "mixture weight"))


def _mix_lotteries(x: Lottery, y: Lottery, alpha: Fraction, held: dict | None = None) -> Lottery:
    """`mix_lotteries` for an *alpha* the caller has already checked.

    With ``alpha = a / b`` and ``L`` the lcm of both lotteries' denominators,
    each prize gets the integer numerator ``a x(z) L + (b - a) y(z) L`` over
    ``b L``, and the measure rule's integer core builds the result, from the
    *held* table if one is given (see `_Distribution._of_numerators`).
    """
    a, b = alpha.numerator, alpha.denominator
    common = lcm(*[p.denominator for _, p in x.probs], *[p.denominator for _, p in y.probs])
    numerators = {z: a * p.numerator * (common // p.denominator) for z, p in x.probs}
    rest = b - a
    for z, p in y.probs:
        num = rest * p.numerator * (common // p.denominator)
        numerators[z] = numerators[z] + num if z in numerators else num
    return Lottery._of_numerators(numerators, b * common, held)


def _lottery_mixer(
    table: dict, alpha: Fraction, held: dict | None = None
) -> Callable[[Lottery, Lottery], Lottery]:
    """The lottery mixer at the checked weight *alpha* that builds each pair ``(x, y)``
    once, by `_mix_lotteries` with *held*, and keeps it in *table* under ``(x, y)``."""

    def mix(x: Lottery, y: Lottery) -> Lottery:
        lottery = table.get((x, y))
        if lottery is None:
            lottery = table[x, y] = _mix_lotteries(x, y, alpha, held)
        return lottery

    return mix


def mix_acts(f: Act, g: Act, alpha: RationalLike) -> Act:
    """Statewise lottery mixture of two acts over the same states."""
    _members((f, g), Act)
    return _mix_acts(f, g, _lottery_mixer({}, unit_weight(alpha, "mixture weight")))


def _mix_acts(f: Act, g: Act, mix: Callable[[Lottery, Lottery], Lottery]) -> Act:
    """The act paying ``mix(x, y)`` in each state where *f* pays ``x`` and *g* pays ``y``.

    Both acts' outcomes are canonical, sorted by state, so the acts cover the
    same states iff their state sequences are equal, one zip pairs their
    lotteries state by state, and the mixed pairs are canonical as built.
    """
    if f.states != g.states:
        raise ValidationError("cannot mix acts defined over different state spaces")
    return Act._of_outcomes(
        tuple([(state, mix(x, y)) for (state, x), (_, y) in zip(f.outcomes, g.outcomes)])
    )


def mix_menus(F: Menu, G: Menu, alpha: RationalLike) -> Menu:
    """The menu ``alpha F + (1 - alpha) G``: all pairwise act mixtures, deduplicated."""
    _members((F, G), Menu)
    mix = _lottery_mixer({}, unit_weight(alpha, "mixture weight"))
    return Menu(tuple(_mix_acts(f, g, mix) for f in F for g in G))


def randomize(F: Menu, betas: Sequence[RationalLike]) -> Menu:
    """The ex-post randomization of a menu over itself with the given weights.

    Builds the menu of all acts of the form ``sum_i beta_i f_i`` with each
    ``f_i`` drawn from *F*, by iterated pairwise mixing.  Members who
    maximize expected utility never need such randomizations, which is why
    criteria are expected to rank the result indifferent to *F*.
    """
    _members((F,), Menu)
    return _randomize(F, betas, mix_menus)


def _randomize(
    F: Menu, betas: Sequence[RationalLike], mix: Callable[[Menu, Menu, Fraction], Menu]
) -> Menu:
    """`randomize` folded through the pairwise menu mixer *mix*, weights checked here.

    The audit passes its memoized mixer, so a step such as
    ``mix(F, F, alpha)`` is the menu its mixing axioms have already built.
    """
    weights = [as_fraction(b) for b in betas]
    if not weights:
        raise BadWeightError("randomization needs at least one weight")
    if any(w < 0 for w in weights):
        raise BadWeightError(f"randomization weights must be nonnegative, got {weights}")
    if sum(weights) != 1:
        raise BadWeightError(f"randomization weights sum to {sum(weights)}, expected exactly 1")
    # Right fold: tail holds the renormalized mixture of the components
    # processed so far, tail_weight their total mass.
    tail = F
    tail_weight = weights[-1]
    for w in reversed(weights[:-1]):
        new_weight = w + tail_weight
        if new_weight == 0:
            continue
        tail = mix(F, tail, w / new_weight)
        tail_weight = new_weight
    return tail


def dominates(F: Menu, G: Menu, inst: Instance, *, strict: bool = False) -> bool:
    """Statewise dominance of menus.

    True when every act of *G* is covered by some act of *F* that is at
    least as good (``strict=True``: strictly better) in every single state.
    Dominance is decided on utilities, which is the outcome order once
    lotteries are ranked completely.  This is `_dominance_relation` over the
    two menus ``(F, G)``: bit 1 of *F*'s entry.
    """
    return bool(_dominance_relation(_members((F, G), Menu), inst, strict)[0] & 2)


def _at_most(values: Sequence[int], strict: bool = False) -> list[int]:
    """Bitsets over the positions of *values*: bit j of entry i is set iff
    ``values[j] <= values[i]`` (``<`` when *strict*).  Equal values are
    grouped into one bitset each, and one sort of the distinct values
    accumulates them."""
    groups: dict[int, int] = {}
    for i, value in enumerate(values):
        groups[value] = groups.get(value, 0) | 1 << i
    below = 0
    for value in sorted(groups):
        group = groups[value]
        groups[value] = below if strict else below | group
        below |= group
    return [groups[value] for value in values]


def _dominance_relation(menus: Sequence[Menu], inst: Instance, strict: bool) -> list[int]:
    """Statewise dominance between every ordered pair of *menus*, as one bitset per position:
    bit j of entry i is set iff ``dominates(menus[i], menus[j], inst, strict=strict)``.

    The distinct acts are numbered once.  In each state, one sort of their
    utilities, as integers over the acts' common denominator, gives every
    act the acts it beats there; AND-ed over the states that is the set of
    acts it dominates.  A menu covers the union of its acts' sets and
    dominates every menu all of whose acts it covers.
    """
    number: dict[Act, int] = {}
    members = [[number.setdefault(act, len(number)) for act in menu] for menu in menus]
    vectors = [_vector(act, inst) for act in number]
    common = lcm(*[den for den, _ in vectors])
    beaten = [-1] * len(vectors)
    for state in range(len(inst.states)):
        keys = [utils[state] * (common // den) for den, utils in vectors]
        beaten = list(map(and_, beaten, _at_most(keys, strict)))
    owned = [sum(1 << k for k in acts) for acts in members]
    covered = [reduce(or_, [beaten[k] for k in acts]) for acts in members]
    return [sum(1 << j for j, own in enumerate(owned) if not own & ~cover) for cover in covered]
