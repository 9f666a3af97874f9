"""Numeric substrate: menu values under posteriors and information structures.

The central quantity is the benefit of information ``b_F(pi)``: the expected
utility of a member who will observe her posterior (drawn according to
``pi``), then pick the best act from the menu ``F``.  Every function here is
pure in its inputs.  Three memos live on the `Instance` and are freed with
it: each act's per-state utility (`Instance._utilities`), each
``(menu, structure)`` benefit (`Instance._benefits`) and each
``(F, G, strict)`` dominance verdict (`Instance._dominance`) are computed
once per instance.  The audit engine builds each mixed act and each mixed
menu once per instance (`Instance._mixtures`, keyed ``(f, g, alpha)`` and
``(F, G, alpha)``) and sends the menus it builds through the instance's
intern table (`Instance._intern`), both freed with the instance, so a memo
hit finds its key by identity.  Each `Criterion` keeps one row of benefits
per menu it has ranked, built through this memo, and one weak-preference
verdict per ordered menu pair it has been asked about; the criterion owns
both tables and frees them.
"""

from __future__ import annotations

from fractions import Fraction
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
    _missing_state,
    as_fraction,
    unit_weight,
)
from .errors import BadWeightError, ValidationError


def _utilities(f: Act, inst: Instance) -> dict[str, Fraction]:
    """State -> expected utility of the lottery act *f* pays there (memoized on *inst*)."""
    table = inst._utilities
    utilities = table.get(f)
    if utilities is None:
        utilities = table[f] = {
            state: inst.lottery_utility(lottery) for state, lottery in f.outcomes
        }
    return utilities


def act_value(f: Act, p: Posterior, inst: Instance) -> Value:
    """Expected utility of act *f* under posterior *p*."""
    utilities = _utilities(f, inst)
    total = Fraction(0)
    try:
        for state, prob in p.probs:
            total += prob * utilities[state]
    except KeyError as exc:
        raise _missing_state(f, exc.args[0]) from None
    return total


def support_value(menu: Menu, p: Posterior, inst: Instance) -> Value:
    """Value of the menu once posterior *p* is known: the best act's expected utility."""
    return max(act_value(f, p, inst) for f in menu)


def benefit_of_information(menu: Menu, pi: InfoStructure, inst: Instance) -> Value:
    """Expected value of the menu before learning, for the prediction *pi*.

    Averages the post-learning menu value over the posteriors that *pi*
    anticipates.  A singleton menu yields the expected utility of its act
    under the implied prior; a larger menu can only do better.
    """
    key = (menu, pi)
    total = inst._benefits.get(key)
    if total is None:
        total = Fraction(0)
        for posterior, weight in pi.support:
            total += weight * support_value(menu, posterior, inst)
        inst._benefits[key] = total
    return total


def mix_lotteries(x: Lottery, y: Lottery, alpha: RationalLike) -> Lottery:
    """The lottery ``alpha x + (1 - alpha) y``."""
    return _mix_lotteries(x, y, unit_weight(alpha, "mixture weight"))


def _mix_lotteries(x: Lottery, y: Lottery, alpha: Fraction) -> Lottery:
    """`mix_lotteries` for an *alpha* the caller has already checked."""
    beta = 1 - alpha
    return Lottery([(z, alpha * p) for z, p in x.probs] + [(z, beta * p) for z, p in y.probs])


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
    f_profiles = [_profile(f, inst) for f in F]
    for g in G:
        g_profile = _profile(g, inst)
        covered = False
        for f_profile in f_profiles:
            if strict:
                ok = all(fv > gv for fv, gv in zip(f_profile, g_profile))
            else:
                ok = all(fv >= gv for fv, gv in zip(f_profile, g_profile))
            if ok:
                covered = True
                break
        if not covered:
            return False
    return True


def _profile(f: Act, inst: Instance) -> tuple[Fraction, ...]:
    """The act's utilities in the instance's state order; the act must be total."""
    utilities = _utilities(f, inst)
    try:
        return tuple([utilities[state] for state in inst.states])
    except KeyError as exc:
        raise _missing_state(f, exc.args[0]) from None
