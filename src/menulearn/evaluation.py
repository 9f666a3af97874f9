"""Numeric substrate: menu values under posteriors and information structures.

The central quantity is the benefit of information ``b_F(pi)``: the expected
utility of a member who will observe her posterior (drawn according to
``pi``), then pick the best act from the menu ``F``.  Every function here is
pure in its inputs and returns exact Fractions.  The arithmetic runs on
Python ints: each act and each posterior is one integer vector over the
instance's states ``inst.states`` with one denominator (``n_f[s] / d_f`` and
``m_p[s] / D_p``), so a menu's value under a posterior is an integer dot
product per act and a max taken by cross-multiplication.  Three memos live
on the `Instance` and are freed with it: those vectors
(`Instance._numerators`), each ``(menu, structure)`` benefit
(`Instance._benefits`, one exact `Fraction` per entry) and each
``(F, G, strict)`` dominance verdict (`Instance._dominance`).  An engine
that needs dominance between every pair of a corpus asks `_dominance_relation`
once instead, for the whole relation as one bitset per menu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import groupby
from math import lcm
from operator import and_, ge, gt, mul, or_
from typing import Callable, Iterable, Sequence

from .core import (
    Act,
    Instance,
    InfoStructure,
    Lottery,
    Menu,
    Posterior,
    RationalLike,
    Value,
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


def _best(acts: Iterable[Act], p: Posterior, inst: Instance) -> tuple[int, int]:
    """``(v, d)``: the best of *acts* is worth ``v / d`` under *p*; the max is cross-multiplied."""
    scale, masses = _vector(p, inst)
    best, best_den = None, 1
    for f in acts:
        den, utils = _vector(f, inst)
        value = sum(map(mul, masses, utils))
        if best is None or value * best_den > best * den:
            best, best_den = value, den
    return best, scale * best_den


def act_value(f: Act, p: Posterior, inst: Instance) -> Value:
    """Expected utility of act *f* under posterior *p*."""
    return Fraction(*_best((f,), p, inst))


def support_value(menu: Menu, p: Posterior, inst: Instance) -> Value:
    """Value of the menu once posterior *p* is known: the best act's expected utility."""
    return Fraction(*_best(menu, p, inst))


def benefit_of_information(menu: Menu, pi: InfoStructure, inst: Instance) -> Value:
    """Expected value of the menu before learning, for the prediction *pi*.

    Averages the post-learning menu value over the posteriors that *pi*
    anticipates.  A singleton menu yields the expected utility of its act
    under the implied prior; a larger menu can only do better.  The sum is
    kept as one unreduced integer pair and reduced once into the memo.
    """
    key = (menu, pi)
    total = inst._benefits.get(key)
    if total is None:
        num, den = 0, 1
        for posterior, weight in pi.support:
            value, term_den = _best(menu, posterior, inst)
            term_den *= weight.denominator
            num = num * term_den + weight.numerator * value * den
            den *= term_den
        total = inst._benefits[key] = Fraction(num, den)
    return total


def mix_lotteries(x: Lottery, y: Lottery, alpha: RationalLike) -> Lottery:
    """The lottery ``alpha x + (1 - alpha) y``."""
    return _mix_lotteries(x, y, unit_weight(alpha, "mixture weight"))


def _mix_lotteries(x: Lottery, y: Lottery, alpha: Fraction) -> Lottery:
    """`mix_lotteries` for an *alpha* the caller has already checked.

    With ``alpha = a / b`` and ``L`` the lcm of both lotteries' denominators,
    each prize gets the integer numerator ``a x(z) L + (b - a) y(z) L`` over
    ``b L``, and the measure rule's integer core builds the result.
    """
    a, b = alpha.numerator, alpha.denominator
    common = lcm(*[p.denominator for _, p in x.probs], *[p.denominator for _, p in y.probs])
    numerators = {z: a * p.numerator * (common // p.denominator) for z, p in x.probs}
    rest = b - a
    for z, p in y.probs:
        num = rest * p.numerator * (common // p.denominator)
        numerators[z] = numerators[z] + num if z in numerators else num
    return Lottery._of_numerators(numerators, b * common)


def mix_acts(f: Act, g: Act, alpha: RationalLike) -> Act:
    """Statewise lottery mixture of two acts over the same states."""
    if set(f.states) != set(g.states):
        raise ValidationError("cannot mix acts defined over different state spaces")
    alpha = unit_weight(alpha, "mixture weight")
    return Act(
        {state: _mix_lotteries(f.lottery(state), g.lottery(state), alpha) for state in f.states}
    )


def mix_menus(F: Menu, G: Menu, alpha: RationalLike) -> Menu:
    """The menu ``alpha F + (1 - alpha) G``: all pairwise act mixtures, deduplicated."""
    alpha = unit_weight(alpha, "mixture weight")
    return Menu(tuple(mix_acts(f, g, alpha) for f in F for g in G))


def randomize(F: Menu, betas: Sequence[RationalLike]) -> Menu:
    """The ex-post randomization of a menu over itself with the given weights.

    Builds the menu of all acts of the form ``sum_i beta_i f_i`` with each
    ``f_i`` drawn from *F*, by iterated pairwise mixing.  Members who
    maximize expected utility never need such randomizations, which is why
    criteria are expected to rank the result indifferent to *F*.
    """
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
    lotteries are ranked completely.  Each ``(F, G, strict)`` verdict is
    decided once per instance and kept in its dominance memo.
    """
    key = (F, G, strict)
    verdict = inst._dominance.get(key)
    if verdict is None:
        verdict = inst._dominance[key] = _dominates(F, G, inst, strict)
    return verdict


def _dominates(F: Menu, G: Menu, inst: Instance, strict: bool) -> bool:
    """Each ``n_f[s] / d_f >= n_g[s] / d_g`` is decided as ``n_f[s] d_g >= n_g[s] d_f``."""
    better = gt if strict else ge
    f_vectors = [_vector(f, inst) for f in F]
    for g in G:
        g_den, g_utils = _vector(g, inst)
        if not any(
            all(map(better, [fv * g_den for fv in f_utils], [gv * f_den for gv in g_utils]))
            for f_den, f_utils in f_vectors
        ):
            return False
    return True


def _at_most(values: Sequence, strict: bool = False) -> list[int]:
    """Bitsets over the positions of *values*: bit j of entry i is set iff
    ``values[j] <= values[i]`` (``<`` when *strict*).  One sort; ties are
    grouped, so the values need only be totally ordered."""
    masks = [0] * len(values)
    below = 0
    key = values.__getitem__
    for _, tied in groupby(sorted(range(len(values)), key=key), key):
        tied = list(tied)
        group = sum(1 << i for i in tied)
        for i in tied:
            masks[i] = below if strict else below | group
        below |= group
    return masks


def _dominance_relation(menus: Sequence[Menu], inst: Instance, strict: bool) -> list[int]:
    """`dominates` between every ordered pair of *menus*, as one bitset per position:
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
