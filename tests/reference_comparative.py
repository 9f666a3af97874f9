"""Reference comparative checks: the four nestedness checks and the two
consistency conditions of a ranking as plain pair loops, the scan of an
implication over fired tuples one tuple at a time, and the phase-one simplex
in `Fraction`s.

`reference_*` returns the report that the matching `menulearn.check_*`
must return: status, witness menus, tuples checked and antecedents fired.
Each check enumerates its tuples with `itertools`, the dominance-filtered
triples from the public `dominates`, and decides every tuple through the
public `weakly_prefers`, `strictly_prefers` and `robust_strict`, with its
own scan, so it shares no relation, enumeration or scan code with the
checks it verifies.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from menulearn import (
    CheckReport,
    ConsistencyReport,
    Criterion,
    Instance,
    Lottery,
    Menu,
    Value,
    constant_menu,
    dominates,
    robust_strict,
)


def _scan(tuples: Iterable[tuple], test: Callable[..., Optional[bool]]):
    """``(status, witness, tuples_checked, antecedents)`` of an implication over *tuples*.

    ``test(*item)`` is None when the antecedent does not fire, else whether
    the consequent holds; the scan stops at the first violation.
    """
    checked = 0
    fired = 0
    for item in tuples:
        checked += 1
        outcome = test(*item)
        if outcome is None:
            continue
        fired += 1
        if not outcome:
            return "fail", item, checked, fired
    return ("pass" if fired else "vacuous"), None, checked, fired


def reference_more_decisive(cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]):
    def test(F, G):
        return cmp1.weakly_prefers(F, G) if cmp2.weakly_prefers(F, G) else None

    return CheckReport("more_decisive", *_scan(itertools.permutations(corpus, 2), test))


def reference_more_strict_decisive(cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]):
    def test(F, G):
        return cmp1.strictly_prefers(F, G) if cmp2.strictly_prefers(F, G) else None

    return CheckReport("more_strict_decisive", *_scan(itertools.permutations(corpus, 2), test))


def _dominance_filtered_triples(corpus: Sequence[Menu], instance: Instance):
    """Ordered triples (F, G, H) with H strictly statewise dominating F."""
    strict_pairs = [
        (H, F)
        for H, F in itertools.permutations(corpus, 2)
        if dominates(H, F, instance, strict=True)
    ]
    for H, F in strict_pairs:
        for G in corpus:
            yield F, G, H


def reference_less_negative_inconsistent(
    cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]
):
    def test(F, G, H):
        if cmp1.weakly_prefers(H, G) or cmp1.weakly_prefers(G, F):
            return None
        return not (cmp2.weakly_prefers(H, G) or cmp2.weakly_prefers(G, F))

    triples = _dominance_filtered_triples(corpus, cmp1.instance)
    return CheckReport("less_negative_inconsistent", *_scan(triples, test))


def reference_less_inconsistent(cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]):
    def test(F, G, H):
        if not (cmp1.weakly_prefers(F, G) and cmp1.weakly_prefers(G, H)):
            return None
        return cmp2.weakly_prefers(F, G) and cmp2.weakly_prefers(G, H)

    triples = _dominance_filtered_triples(corpus, cmp1.instance)
    return CheckReport("less_inconsistent", *_scan(triples, test))


def reference_check_consistency(
    value_of: Callable[[Menu], Value],
    comparator: Criterion,
    corpus: Sequence[Menu],
    lotteries: Sequence[Lottery],
):
    """Lottery consistency over the ordered pairs of constant menus the criterion
    weakly ranks, and robustly strict consistency over the ordered pairs of
    unequal corpus menus some constant menu separates robustly."""
    inst, coll = comparator.instance, comparator.collection
    constants = [constant_menu(inst, x) for x in lotteries]

    def weakly_ranked(xm, ym):
        return value_of(xm) >= value_of(ym) if comparator.weakly_prefers(xm, ym) else None

    def separated(F, G):
        for xm in constants:
            if robust_strict(F, xm, coll, inst) and robust_strict(xm, G, coll, inst):
                return value_of(F) > value_of(G)
        return None

    unequal = [(F, G) for F, G in itertools.permutations(corpus, 2) if F != G]
    return ConsistencyReport(
        CheckReport(
            "lottery_consistency", *_scan(itertools.permutations(constants, 2), weakly_ranked)
        ),
        CheckReport("robust_strict_consistency", *_scan(unequal, separated)),
    )


def reference_scan(fired: Iterable[tuple[int, tuple, bool]], total: int, max_tuples=None):
    """``(status, witness, tuples_checked, antecedents)`` of the fired tuples
    ``(position, item, holds)``, in increasing position, one at a time: a fail
    at the first violation, "truncated" at the first fired tuple after
    *max_tuples* were decided."""
    antecedents = 0
    for position, item, holds in fired:
        if antecedents == max_tuples:
            return "truncated", None, position, antecedents
        antecedents += 1
        if not holds:
            return "fail", item, position + 1, antecedents
    return ("pass" if antecedents else "vacuous"), None, total, antecedents


def reference_phase_one(rows: list[list[Fraction]], rhs: list[Fraction]):
    """x >= 0 with ``rows x = rhs``, or None: the phase-one simplex with Bland's rule
    over an artificial basis, every entry a Fraction."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = []
    for i in range(m):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        tableau.append(row + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b])
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * (n + m) + [Fraction(0)]
    for j in range(n + m + 1):
        cost[j] = -sum(tableau[i][j] for i in range(m))
    for j in range(n, n + m):
        cost[j] += 1
    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            return None
        pivot_value = tableau[leaving][entering]
        tableau[leaving] = [a / pivot_value for a in tableau[leaving]]
        for i, r in enumerate(tableau):
            if i != leaving and r[entering] != 0:
                factor = r[entering]
                tableau[i] = [a - factor * b for a, b in zip(r, tableau[leaving])]
        factor = cost[entering]
        if factor != 0:
            for j in range(len(cost)):
                cost[j] -= factor * tableau[leaving][j]
        basis[leaving] = entering
    if cost[-1] != 0:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][-1]
        elif tableau[i][-1] != 0:
            return None
    return solution
