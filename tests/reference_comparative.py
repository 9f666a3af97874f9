"""Reference comparative checks: the four nestedness checks as plain pair loops.

`reference_*` returns the `CheckReport` that the matching
`menulearn.check_*` must return: status, witness menus, tuples checked and
antecedents fired.  Each check enumerates its tuples with `itertools`, the
dominance-filtered triples from the public `dominates`, and decides every
tuple through the public `weakly_prefers` and `strictly_prefers`, with its
own scan, so it shares no relation, enumeration or scan code with the
checks it verifies.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence

from menulearn import CheckReport, Criterion, Instance, Menu, dominates


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
