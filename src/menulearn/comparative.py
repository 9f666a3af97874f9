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
combination, solved by a fraction-free phase-one simplex over integer rows.

Each check decides the relations it reads on the corpus once per call, as
one Python-int bitset per corpus position: weak preference from
`Criterion._relation`, strict preference as its asymmetric part, strict
statewise dominance from `_dominance_relation`.  Each row of the plain
enumeration (ordered pairs, or dominance-filtered triples) is one mask of
fired tuples and one of holding consequents, and `_scan` reports, from bit
counts, the first witness and the counts that enumeration would.  `_scan` is
the one scan of an implication over tuples: the audit's axioms and the
consistency checks of `rationalize` run through it too.  A corpus entry that
is not a `Menu` is a TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
from .evaluation import _bits, _converse, _dominance_relation


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
    """Find x >= 0 with A x = b exactly, or None. Minimizes the artificial mass.

    Fraction-free: each row is ints over a positive scale, its basic variable's
    coefficient, and the cost row (last) is known up to a positive factor, so each
    sign and ratio, and the pivot sequence, are those of the rational simplex."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    # Clear each row's denominators, flipping rows with negative right-hand side
    # so the artificial basis is feasible.
    tableau = []
    for i in range(m):
        entries = [*rows[i], rhs[i]]
        scale = lcm(*[a.denominator for a in entries]) * (-1 if rhs[i] < 0 else 1)
        row = [a.numerator * (scale // a.denominator) for a in entries]
        tableau.append(row[:n] + [abs(scale) * (j == i) for j in range(m)] + row[n:])
    basis = list(range(n, n + m))
    # Objective: minimize the sum of artificial variables.  Reduced costs are the
    # negated sum of the basic (artificial) rows, each over its scale.
    common = lcm(*[row[n + i] for i, row in enumerate(tableau)])
    weights = [common // row[n + i] for i, row in enumerate(tableau)]
    tableau.append([
        common * (n <= j < n + m) - sum(w * row[j] for w, row in zip(weights, tableau))
        for j in range(n + m + 1)
    ])
    while (entering := next((j for j in range(n + m) if tableau[m][j] < 0), None)) is not None:
        # Ratio test with Bland's tie-break on the leaving basic variable.  A row's
        # ratio, right-hand side over entering coefficient, is free of its scale.
        leaving = None
        for i, row in enumerate(tableau[:m]):
            if row[entering] > 0 and (leaving is None or (row[-1] * best[entering], basis[i])
                                      < (best[-1] * row[entering], basis[leaving])):
                leaving, best = i, row
        if leaving is None:
            return None  # unbounded; cannot happen for this bounded system
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    if tableau[m][-1] != 0:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(tableau[i][-1], tableau[i][var])
        elif tableau[i][-1] != 0:
            return None  # artificial stuck in basis at positive level
    return solution


def _pivot(tableau: list[list[int]], row: int, col: int) -> None:
    """Pivot on ``tableau[row][col] > 0``: each other row with an entry in *col* is
    cross-multiplied with that row and divided by its gcd, keeping every scale positive."""
    pivot_row = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col]:
            r = [pivot_row[col] * a - r[col] * b for a, b in zip(r, pivot_row)]
            divisor = gcd(*r) or 1
            tableau[i] = [a // divisor for a in r]


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
    _members((pi1, pi2), CredalSet)
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
    rows: Iterable[tuple[int, int, int, Callable[[int], tuple]]],
    total: int,
    max_tuples: Optional[int] = None,
) -> tuple[str, Optional[tuple], int, int]:
    """Decide an implication over the *total* tuples of an enumeration, stopping at the
    first violation.

    *rows* yields ``(offset, fired, holds, item_of)`` in increasing offset, over
    disjoint positions: bit ``b`` of the masks is the tuple at position
    ``offset + b`` of the enumeration, set in *fired* iff its antecedent fires
    and in *holds* iff its consequent holds; other tuples are vacuous.  Counts
    are `int.bit_count`s, the first violation is the lowest set bit of
    ``fired & ~holds``, and ``item_of(b)`` builds only the witness.  Returns
    ``(status, witness, tuples_checked, antecedents)``: status "fail" with the
    violating item as witness and the tuples up to it checked; "truncated"
    when *max_tuples* antecedents were decided and another fired, with the
    tuples before that one checked; otherwise "pass", or "vacuous" when
    nothing fired.
    """
    antecedents = 0
    for offset, fired, holds, item_of in rows:
        count = fired.bit_count()
        room = count if max_tuples is None else max_tuples - antecedents
        violated = fired & ~holds
        if violated:
            low = (violated & -violated).bit_length() - 1
            before = (fired & (1 << low) - 1).bit_count()
            if before < room:
                return STATUS_FAIL, item_of(low), offset + low + 1, antecedents + before + 1
        if count > room:
            for _ in range(room):
                fired &= fired - 1
            return STATUS_TRUNCATED, None, offset + (fired & -fired).bit_length() - 1, max_tuples
        antecedents += count
    return (STATUS_PASS if antecedents else STATUS_VACUOUS), None, total, antecedents


def _drop(mask: int, i: int) -> int:
    """*mask* without bit *i*, the bits above it moved down one: a row of ordered pairs
    ``(i, j)``, ``j != i``, at their positions in ``itertools.permutations``."""
    return mask & (1 << i) - 1 | mask >> (i + 1) << i


def _pair_rows(fires: Sequence[int], holds: Sequence[int], pair: Callable) -> Iterator[tuple]:
    """The `_scan` rows of the ordered pairs (i, j) of distinct positions, in
    ``itertools.permutations`` order: row i, at ``i * (n - 1)``, is entry i of the
    bitsets *fires* and *holds* with bit i dropped, and ``pair(i, j)`` an item."""
    n = len(fires)
    for i in range(n):
        item_of = lambda b, i=i: pair(i, b + (b >= i))
        yield i * (n - 1), _drop(fires[i], i), _drop(holds[i], i), item_of


def _strict(weak: Sequence[int]) -> list[int]:
    """The asymmetric part of the weak relation *weak*: strict preference, as bitsets."""
    return [up & ~down for up, down in zip(weak, _converse(weak))]


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
    fires, holds = of_weak(cmp2._relation(corpus)), of_weak(cmp1._relation(corpus))
    pairs = _pair_rows(fires, holds, lambda i, j: (corpus[i], corpus[j]))
    return CheckReport(check, *_scan(pairs, total=n * (n - 1)))


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

    def rows():
        up1, up2 = cmp1._relation(corpus), cmp2._relation(corpus)
        down1, down2 = _converse(up1), _converse(up2)
        full = (1 << n) - 1
        for rank, (h, f) in enumerate(dominating):
            item_of = lambda g, f=f, h=h: (corpus[f], corpus[g], corpus[h])
            yield rank * n, pattern(up1, down1, f, h) & full, pattern(up2, down2, f, h), item_of

    return CheckReport(check, *_scan(rows(), total=len(dominating) * n))


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
