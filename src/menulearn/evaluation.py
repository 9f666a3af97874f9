"""Numeric substrate: menu values under posteriors and information structures.

The central quantity is the benefit of information ``b_F(pi)``: the expected
utility of a member who will observe her posterior (drawn according to
``pi``), then pick the best act from the menu ``F``.  Every function here is
pure in its inputs and returns exact Fractions.  The arithmetic runs on
Python ints: the instance keeps its prize utilities over one denominator,
each act's per-state utilities are integer numerators over one denominator
per act (``n_f[s] / d_f``), and each posterior is put over the lcm of its
denominators, so a menu's value under a posterior is an integer dot product
per act and a max taken by cross-multiplication.  Three memos live on the
`Instance` and are freed with it: each act's integer utilities
(`Instance._numerators`), each ``(menu, structure)`` benefit
(`Instance._benefits`, one exact `Fraction` per entry) and each
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
from math import lcm
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


def _numerators(f: Act, inst: Instance) -> tuple[int, dict[str, int]]:
    """``(d_f, {state: n_f[s]})``: act *f* pays utility ``n_f[s] / d_f`` in state s.

    Memoized on *inst*.  ``d_f`` is the lcm of the per-state lottery
    denominators, so each numerator is rescaled by ``d_f // den``.
    """
    table = inst._numerators
    entry = table.get(f)
    if entry is None:
        parts = [(state, inst._lottery_numerator(lottery)) for state, lottery in f.outcomes]
        common = lcm(*[den for _, (_, den) in parts])
        entry = table[f] = (
            common,
            {state: num * (common // den) for state, (num, den) in parts},
        )
    return entry


def _posterior_numerators(p: Posterior) -> tuple[int, list[tuple[str, int]]]:
    """``(D_p, [(state, m_p[s])])``: posterior *p* puts mass ``m_p[s] / D_p`` on state s."""
    probs = p.probs
    common = lcm(*[prob.denominator for _, prob in probs])
    return common, [
        (state, prob.numerator * (common // prob.denominator)) for state, prob in probs
    ]


def _act_numerator(f: Act, masses: list[tuple[str, int]], inst: Instance) -> tuple[int, int]:
    """``(v, d_f)``: act *f* is worth ``v / (D_p * d_f)`` under the posterior *masses*."""
    common, numerators = _numerators(f, inst)
    try:
        return sum([mass * numerators[state] for state, mass in masses]), common
    except KeyError as exc:
        raise _missing_state(f, exc.args[0]) from None


def _support_numerator(
    menu: Menu, masses: list[tuple[str, int]], inst: Instance
) -> tuple[int, int]:
    """``(v, d)`` of the menu's best act under *masses*; the max is cross-multiplied."""
    best, best_den = None, 1
    for f in menu:
        value, den = _act_numerator(f, masses, inst)
        if best is None or value * best_den > best * den:
            best, best_den = value, den
    return best, best_den


def act_value(f: Act, p: Posterior, inst: Instance) -> Value:
    """Expected utility of act *f* under posterior *p*."""
    scale, masses = _posterior_numerators(p)
    value, den = _act_numerator(f, masses, inst)
    return Fraction(value, scale * den)


def support_value(menu: Menu, p: Posterior, inst: Instance) -> Value:
    """Value of the menu once posterior *p* is known: the best act's expected utility."""
    scale, masses = _posterior_numerators(p)
    value, den = _support_numerator(menu, masses, inst)
    return Fraction(value, scale * den)


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
            scale, masses = _posterior_numerators(posterior)
            value, act_den = _support_numerator(menu, masses, inst)
            term_den = weight.denominator * scale * act_den
            num = num * term_den + weight.numerator * value * den
            den *= term_den
        total = inst._benefits[key] = Fraction(num, den)
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
    """Each ``n_f[s] / d_f >= n_g[s] / d_g`` is decided as ``n_f[s] d_g >= n_g[s] d_f``."""
    f_profiles = [_profile(f, inst) for f in F]
    for g in G:
        g_den, g_profile = _profile(g, inst)
        covered = False
        for f_den, f_profile in f_profiles:
            if strict:
                ok = all(fv * g_den > gv * f_den for fv, gv in zip(f_profile, g_profile))
            else:
                ok = all(fv * g_den >= gv * f_den for fv, gv in zip(f_profile, g_profile))
            if ok:
                covered = True
                break
        if not covered:
            return False
    return True


def _profile(f: Act, inst: Instance) -> tuple[int, tuple[int, ...]]:
    """``(d_f, numerators)`` in the instance's state order; the act must be total."""
    common, numerators = _numerators(f, inst)
    try:
        return common, tuple([numerators[state] for state in inst.states])
    except KeyError as exc:
        raise _missing_state(f, exc.args[0]) from None
