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

Each check decides the relations it reads on the corpus once per call, as
one Python-int bitset per corpus position: weak preference from
`Criterion._relation`, strict preference as its asymmetric part, strict
statewise dominance from `_dominance_relation`.  Only the tuples whose
antecedent fires are visited, at their positions in the plain enumeration
(ordered pairs, or dominance-filtered triples), and `_scan` reports the
first witness and the counts that enumeration would.  `_scan` is the one
scan of an implication over tuples: the audit's axioms and the consistency
checks of `rationalize` run through it too.  A corpus entry that is not a
`Menu` is a TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    CredalSet,
    Instance,
    InfoStructure,
    Menu,
    Posterior,
    RationalLike,
    _members,
    as_fraction,
    validate_posterior,
)
from .criteria import Criterion
from .errors import DimensionMismatchError
from .evaluation import _dominance_relation


# ---------------------------------------------------------------------------
# Exact convex-combination feasibility
# ---------------------------------------------------------------------------


def solve_convex_combination(
    target: Sequence[RationalLike],
    generators: Sequence[Sequence[RationalLike]],
) -> Optional[tuple[Fraction, ...]]:
    """Exact weights expressing *target* as a convex combination of *generators*.

    Returns a tuple of nonnegative Fractions summing to one with
    ``sum_j w_j * generators[j] == target``, or None if no such weights
    exist.  Solved as a phase-one simplex (Bland's rule, so termination is
    guaranteed) entirely in rational arithmetic.  Every entry is read with
    `as_fraction`: a float is a TypeError and a string outside the rational
    grammar a ValidationError.
    """
    m = len(target)
    n = len(generators)
    if n == 0:
        return None
    for gen in generators:
        if len(gen) != m:
            raise DimensionMismatchError("generator vectors must match the target's length")
    # Equality system: one row per coordinate plus the weights-sum-to-one row.
    rows = [[as_fraction(gen[i]) for gen in generators] for i in range(m)]
    rhs = [as_fraction(t) for t in target]
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
        _members((instance,), Instance)
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


#: What a scan reports; the audit and every check print these strings.
STATUS_PASS, STATUS_FAIL, STATUS_TRUNCATED, STATUS_VACUOUS = "pass", "fail", "truncated", "vacuous"


def _scan(
    fired: Iterable[tuple[int, tuple, bool]],
    total: int,
    max_tuples: Optional[int] = None,
) -> tuple[str, Optional[tuple], int, int]:
    """Decide an implication over the *total* tuples of an enumeration, stopping at the
    first violation.

    *fired* yields ``(position, item, holds)`` for the tuples whose
    antecedent fires, in increasing position, where the position counts
    every tuple of the enumeration, and *holds* says whether the consequent
    holds at *item*.  A tuple *fired* skips is vacuous.  Returns ``(status,
    witness, tuples_checked, antecedents)``: status "fail" with the
    violating item as witness and the tuples up to it checked; "truncated"
    when *max_tuples* antecedents were decided and another fired, with the
    tuples before that one checked; otherwise "pass", or "vacuous" when
    nothing fired.
    """
    antecedents = 0
    for position, item, holds in fired:
        if antecedents == max_tuples:
            return STATUS_TRUNCATED, None, position, antecedents
        antecedents += 1
        if not holds:
            return STATUS_FAIL, item, position + 1, antecedents
    return (STATUS_PASS if antecedents else STATUS_VACUOUS), None, total, antecedents


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of *mask*, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _converse(relation: Sequence[int]) -> list[int]:
    """The converse of a bitset relation: bit j of entry i is set iff bit i of entry j is."""
    n = len(relation)
    return [sum(1 << j for j in range(n) if relation[j] >> i & 1) for i in range(n)]


def _strict(weak: Sequence[int]) -> list[int]:
    """The asymmetric part of the weak relation *weak*: strict preference, as bitsets."""
    return [up & ~down for up, down in zip(weak, _converse(weak))]


def _pair_position(i: int, j: int, n: int) -> int:
    """The index of ``(menus[i], menus[j])`` in ``itertools.permutations(menus, 2)``."""
    return i * (n - 1) + j - (j > i)


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
        return self.status != STATUS_FAIL

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


def _check_pairs(
    check: str,
    cmp1: Criterion,
    cmp2: Criterion,
    corpus: Sequence[Menu],
    of_weak: Callable[[list[int]], list[int]],
) -> CheckReport:
    """*check* over the ordered pairs of distinct corpus positions: every pair in
    ``of_weak`` of *cmp2*'s weak relation over the corpus must be in *cmp1*'s."""
    _members((cmp1, cmp2), Criterion)
    corpus = _members(corpus, Menu)
    n = len(corpus)

    def fired():
        fires, holds = of_weak(cmp2._relation(corpus)), of_weak(cmp1._relation(corpus))
        for i, F in enumerate(corpus):
            for j in _bits(fires[i] & ~(1 << i)):
                yield _pair_position(i, j, n), (F, corpus[j]), holds[i] >> j & 1

    return CheckReport(check, *_scan(fired(), total=n * (n - 1)))


def check_more_decisive(
    cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]
) -> CheckReport:
    """Whenever the second unanimity criterion ranks a pair, the first must agree."""
    return _check_pairs("more_decisive", cmp1, cmp2, corpus, list)


def check_more_strict_decisive(
    cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]
) -> CheckReport:
    """Whenever the second veto criterion is strictly decided, so is the first."""
    return _check_pairs("more_strict_decisive", cmp1, cmp2, corpus, _strict)


def _check_triples(
    check: str,
    cmp1: Criterion,
    cmp2: Criterion,
    corpus: Sequence[Menu],
    pattern: Callable[[list[int], list[int], int, int], int],
) -> CheckReport:
    """*check* over the triples (F, G, H) with H strictly dominating F: wherever
    *pattern* holds for the first criterion, it must hold for the second.

    The triples run through the strictly dominating pairs (H, F) in
    permutation order, G varying fastest.  ``pattern(up, down, f, h)`` gives
    the bitset of G positions where it holds, from the criterion's weak
    relation *up* and its converse *down*.
    """
    _members((cmp1, cmp2), Criterion)
    corpus = _members(corpus, Menu)
    n = len(corpus)
    dominating = [
        (h, f)
        for h, dominated in enumerate(_dominance_relation(corpus, cmp1.instance, True))
        for f in _bits(dominated)
    ]

    def fired():
        up1, up2 = cmp1._relation(corpus), cmp2._relation(corpus)
        down1, down2 = _converse(up1), _converse(up2)
        full = (1 << n) - 1
        for rank, (h, f) in enumerate(dominating):
            holds = pattern(up2, down2, f, h)
            for g in _bits(pattern(up1, down1, f, h) & full):
                yield rank * n + g, (corpus[f], corpus[g], corpus[h]), holds >> g & 1

    return CheckReport(check, *_scan(fired(), total=len(dominating) * n))


def _silent(up: list[int], down: list[int], f: int, h: int) -> int:
    """The Gs ranked neither below H nor above F."""
    return ~(up[h] | down[f])


def _chain(up: list[int], down: list[int], f: int, h: int) -> int:
    """The Gs with F ranked above G and G above H."""
    return up[f] & down[h]


def check_less_negative_inconsistent(
    cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]
) -> CheckReport:
    """Indecision chains of the first criterion must be exhibited by the second.

    Over triples with H strictly dominating F: if the first criterion can
    rank neither H over G nor G over F, the second must be equally silent.
    """
    return _check_triples("less_negative_inconsistent", cmp1, cmp2, corpus, _silent)


def check_less_inconsistent(
    cmp1: Criterion, cmp2: Criterion, corpus: Sequence[Menu]
) -> CheckReport:
    """Transitivity violations of the first criterion must recur in the second.

    Over triples with H strictly dominating F: ranking F above G above H is
    an inconsistency (H dominates F); if the first criterion exhibits it,
    the second must too.
    """
    return _check_triples("less_inconsistent", cmp1, cmp2, corpus, _chain)
