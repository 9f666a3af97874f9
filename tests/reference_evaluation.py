"""Reference evaluation kernel: the plain, unmemoized definitions.

These are the straightforward formulas, re-deriving every lottery utility
on every call and summing Fractions.  `menulearn.evaluation` memoizes per
instance and evaluates on integer numerators (one denominator per act, one
per posterior); the differential tests require it to agree with these
functions exactly.  The mixtures (`mix_lotteries`,
`mean_posterior`, `combine_structures`) accumulate each weighted sum in a
dict, where `menulearn` lists weighted pairs for the one measure rule.
"""

from __future__ import annotations

from fractions import Fraction

from menulearn.core import Act, Instance, InfoStructure, Lottery, Menu, Posterior, as_fraction


def lottery_utility(x: Lottery, inst: Instance) -> Fraction:
    total = Fraction(0)
    for prize, prob in x.probs:
        total += prob * inst.utility_of(prize)
    return total


def act_value(f: Act, p: Posterior, inst: Instance) -> Fraction:
    total = Fraction(0)
    for state, prob in p.probs:
        total += prob * lottery_utility(f.lottery(state), inst)
    return total


def support_value(menu: Menu, p: Posterior, inst: Instance) -> Fraction:
    return max(act_value(f, p, inst) for f in menu)


def benefit(menu: Menu, pi: InfoStructure, inst: Instance) -> Fraction:
    total = Fraction(0)
    for posterior, weight in pi.support:
        total += weight * support_value(menu, posterior, inst)
    return total


def mix_lotteries(x: Lottery, y: Lottery, alpha) -> Lottery:
    alpha = as_fraction(alpha)
    combined: dict[str, Fraction] = {}
    for prize, prob in x.probs:
        combined[prize] = combined.get(prize, Fraction(0)) + alpha * prob
    for prize, prob in y.probs:
        combined[prize] = combined.get(prize, Fraction(0)) + (1 - alpha) * prob
    return Lottery(combined)


def mean_posterior(pi: InfoStructure) -> Posterior:
    accumulated: dict[str, Fraction] = {}
    for posterior, weight in pi.support:
        for state, prob in posterior.probs:
            accumulated[state] = accumulated.get(state, Fraction(0)) + weight * prob
    return Posterior(accumulated)


def combine_structures(structures, weights) -> InfoStructure:
    accumulated: dict[Posterior, Fraction] = {}
    for structure, w in zip(structures, weights):
        if w == 0:
            continue
        for posterior, weight in structure.support:
            accumulated[posterior] = accumulated.get(posterior, Fraction(0)) + w * weight
    return InfoStructure(tuple(accumulated.items()))


def mix_acts(f: Act, g: Act, alpha) -> Act:
    return Act({state: mix_lotteries(f.lottery(state), g.lottery(state), alpha) for state in f.states})


def mix_menus(F: Menu, G: Menu, alpha) -> Menu:
    alpha = as_fraction(alpha)
    return Menu(tuple(mix_acts(f, g, alpha) for f in F for g in G))


def dominates(F: Menu, G: Menu, inst: Instance, *, strict: bool = False) -> bool:
    f_profiles = [
        tuple(lottery_utility(f.lottery(state), inst) for state in inst.states) for f in F
    ]
    for g in G:
        g_profile = tuple(lottery_utility(g.lottery(state), inst) for state in inst.states)
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
