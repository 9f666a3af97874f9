"""Comparative statics: credal-set nestedness and rationality-violation checks.

A smaller credal set means less disagreement.  For the unanimity (BML)
criterion that shows up as being *more decisive* and *less
negative-inconsistent*; for the veto (JML) criterion as *more
strict-decisive* and *less inconsistent*.  The forward direction (nested
sets imply the behavioral comparisons) is exactly testable on any menu
corpus; the converse quantifies over all menus and is only ever witness
searched, never asserted.

Nestedness itself is decided exactly: information structures embed as
rational vectors indexed by the union of support posteriors, and hull
membership reduces to feasibility of an equality-constrained nonnegative
combination, solved by a phase-one simplex over Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .core import CredalSet, Instance, InfoStructure, Menu, Posterior, validate_posterior
from .criteria import Criterion
from .errors import DimensionMismatchError
from .evaluation import dominates


# ---------------------------------------------------------------------------
# Exact convex-combination feasibility
# ---------------------------------------------------------------------------


def solve_convex_combination(
    target: Sequence[Fraction],
    generators: Sequence[Sequence[Fraction]],
) -> Optional[tuple[Fraction, ...]]:
    """Exact weights expressing *target* as a convex combination of *generators*.

    Returns a tuple of nonnegative Fractions summing to one with
    ``sum_j w_j * generators[j] == target``, or None if no such weights
    exist.  Solved as a phase-one simplex (Bland's rule, so termination is
    guaranteed) entirely in rational arithmetic.
    """
    m = len(target)
    n = len(generators)
    if n == 0:
        return None
    for gen in generators:
        if len(gen) != m:
            raise DimensionMismatchError("generator vectors must match the target's length")
    # Equality system: one row per coordinate plus the weights-sum-to-one row.
    rows = [[Fraction(gen[i]) for gen in generators] for i in range(m)]
    rhs = [Fraction(t) for t in target]
    rows.append([Fraction(1)] * n)
    rhs.append(Fraction(1))
    solution = _phase_one(rows, rhs)
    if solution is None:
        return None
    return tuple(solution)


def _phase_one(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b exactly, or None. Minimizes the artificial mass."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    # Flip rows with negative right-hand side so the artificial basis is feasible.
    tableau = []
    for i in range(m):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        tableau.append(row + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b])
    basis = list(range(n, n + m))
    # Objective: minimize the sum of artificial variables.  Reduced costs are
    # kept as the negated sum of the basic (artificial) rows.
    cost = [Fraction(0)] * (n + m) + [Fraction(0)]
    for j in range(n + m + 1):
        cost[j] = -sum(tableau[i][j] for i in range(m))
    for j in range(n, n + m):
        cost[j] += 1
    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        # Ratio test with Bland's tie-break on the leaving basic variable.
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
            return None  # unbounded; cannot happen for this bounded system
        _pivot(tableau, cost, leaving, entering)
        basis[leaving] = entering
    objective = -cost[-1]
    if objective != 0:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][-1]
        elif tableau[i][-1] != 0:
            return None  # artificial stuck in basis at positive level
    return solution


def _pivot(tableau: list[list[Fraction]], cost: list[Fraction], row: int, col: int) -> None:
    pivot_value = tableau[row][col]
    tableau[row] = [a / pivot_value for a in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            factor = r[col]
            tableau[i] = [a - factor * b for a, b in zip(r, tableau[row])]
    factor = cost[col]
    if factor != 0:
        for j in range(len(cost)):
            cost[j] -= factor * tableau[row][j]


def _structure_vectors(
    structures: Sequence[InfoStructure],
) -> tuple[list[Posterior], list[tuple[Fraction, ...]]]:
    """Embed structures over the union of their support posteriors."""
    index: list[Posterior] = []
    for structure in structures:
        for posterior in structure.posteriors:
            if posterior not in index:
                index.append(posterior)
    vectors = [
        tuple(structure.weight(posterior) for posterior in index) for structure in structures
    ]
    return index, vectors


def credal_subset(
    pi1: CredalSet,
    pi2: CredalSet,
    instance: Instance | None = None,
) -> bool:
    """Exact set inclusion of credal polytopes: is the hull of *pi1* inside *pi2*'s?

    Holds iff every generator of *pi1* is a convex combination of *pi2*'s
    generators.  When *instance* is supplied, posteriors mentioning states
    outside it raise DimensionMismatchError.
    """
    if instance is not None:
        for credal in (pi1, pi2):
            for gen in credal:
                for posterior in gen.posteriors:
                    validate_posterior(posterior, instance)
    all_structures = list(pi1.generators) + list(pi2.generators)
    _, vectors = _structure_vectors(all_structures)
    target_vectors = vectors[: len(pi1.generators)]
    hull_vectors = vectors[len(pi1.generators):]
    return all(
        solve_convex_combination(target, hull_vectors) is not None
        for target in target_vectors
    )


# ---------------------------------------------------------------------------
# Behavioral comparison checks over menu corpora
# ---------------------------------------------------------------------------


#: What a check's test returns for one tuple: the implication holds, its
#: antecedent did not fire, or it is violated.
_HOLDS, _VACUOUS, _VIOLATED = True, None, False


def _scan(
    tuples: Iterable[tuple],
    test: Callable[..., Optional[bool]],
    max_tuples: Optional[int] = None,
) -> tuple[str, Optional[tuple], int, int]:
    """Test an implication on each tuple in order, stopping at the first violation.

    ``test(*item)`` returns None when the antecedent does not fire, else
    whether the consequent holds.  Returns ``(status, witness,
    tuples_checked, antecedents)``: status "fail" with the violating tuple
    as witness; "truncated" when *max_tuples* tuples were checked and more
    were left; otherwise "pass", or "vacuous" when nothing fired.
    """
    checked = 0
    fired = 0
    for item in tuples:
        if max_tuples is not None and checked >= max_tuples:
            return "truncated", None, checked, fired
        checked += 1
        outcome = test(*item)
        if outcome is _VACUOUS:
            continue
        fired += 1
        if not outcome:
            return "fail", item, checked, fired
    return ("pass" if fired else "vacuous"), None, checked, fired


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one comparative check over a corpus.

    ``status`` is "pass", "fail", or "vacuous" (the antecedent never
    fired).  A fail carries the first witness tuple of menus.
    """

    check: str
    status: str
    witness: Optional[tuple[Menu, ...]] = None
    tuples_checked: int = 0
    antecedents: int = 0

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_record(self) -> dict:
        record = {
            "check": self.check,
            "status": self.status,
            "tuples_checked": self.tuples_checked,
            "antecedents": self.antecedents,
        }
        if self.witness is not None:
            record["witness_size"] = len(self.witness)
        return record


def check_more_decisive(
    cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]
) -> CheckReport:
    """Whenever the second unanimity criterion ranks a pair, the first must agree."""
    def test(F: Menu, G: Menu) -> Optional[bool]:
        return cmp1.weakly_prefers(F, G) if cmp2.weakly_prefers(F, G) else _VACUOUS

    return CheckReport("more_decisive", *_scan(itertools.permutations(corpus, 2), test))


def check_more_strict_decisive(
    cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]
) -> CheckReport:
    """Whenever the second veto criterion is strictly decided, so is the first."""
    def test(F: Menu, G: Menu) -> Optional[bool]:
        return cmp1.strictly_prefers(F, G) if cmp2.strictly_prefers(F, G) else _VACUOUS

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


def check_less_negative_inconsistent(
    cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]
) -> CheckReport:
    """Indecision chains of the first criterion must be exhibited by the second.

    Over triples with H strictly dominating F: if the first criterion can
    rank neither H over G nor G over F, the second must be equally silent.
    """
    def test(F: Menu, G: Menu, H: Menu) -> Optional[bool]:
        if cmp1.weakly_prefers(H, G) or cmp1.weakly_prefers(G, F):
            return _VACUOUS
        return not (cmp2.weakly_prefers(H, G) or cmp2.weakly_prefers(G, F))

    triples = _dominance_filtered_triples(corpus, cmp1.instance)
    return CheckReport("less_negative_inconsistent", *_scan(triples, test))


def check_less_inconsistent(
    cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]
) -> CheckReport:
    """Transitivity violations of the first criterion must recur in the second.

    Over triples with H strictly dominating F: ranking F above G above H is
    an inconsistency (H dominates F); if the first criterion exhibits it,
    the second must too.
    """
    def test(F: Menu, G: Menu, H: Menu) -> Optional[bool]:
        if not (cmp1.weakly_prefers(F, G) and cmp1.weakly_prefers(G, H)):
            return _VACUOUS
        return cmp2.weakly_prefers(F, G) and cmp2.weakly_prefers(G, H)

    triples = _dominance_filtered_triples(corpus, cmp1.instance)
    return CheckReport("less_inconsistent", *_scan(triples, test))
