"""Brute-force axiom auditing for menu-preference comparators.

Generates seeded menu corpora, checks each selected axiom exhaustively over
tuples of the axiom's arity (mixtures drawn from a rational grid), and
reports pass / fail / vacuous per axiom, or truncated when the tuple cap
cut the enumeration short.  Failures carry a replayable, shrunken
counterexample: rerunning the audit on the counterexample menus alone
reproduces the failure.

Two axioms get special treatment.  Nontriviality is a pure existence claim,
so it is checked by witness search and can never fail with a counterexample
(no witness found is reported as vacuous).  Continuity quantifies over real
intervals and is not finitely refutable; it is always reported as
"not-audited".
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Iterator, Optional, Sequence

from .core import (
    Act,
    Collection,
    CredalSet,
    Instance,
    InfoStructure,
    Lottery,
    Menu,
    Posterior,
    Verdict,
    constant_menu,
)
from .comparative import _HOLDS, _VACUOUS, _VIOLATED, _scan
from .comparative import STATUS_FAIL, STATUS_PASS, STATUS_TRUNCATED, STATUS_VACUOUS
from .criteria import BmlComparator, Criterion, HmlComparator, JmlComparator
from .errors import BadWeightError, ValidationError
from .evaluation import _randomize, dominates, mix_acts, mix_lotteries, mix_menus


class Axiom(Enum):
    NONTRIVIALITY = "nontriviality"
    COMPLETENESS_FOR_LOTTERIES = "completeness_for_lotteries"
    COMPLETENESS = "completeness"
    TRANSITIVITY = "transitivity"
    UNAMBIGUOUS_TRANSITIVITY = "unambiguous_transitivity"
    REFLEXIVITY = "reflexivity"
    PREFERENCE_FOR_FLEXIBILITY = "preference_for_flexibility"
    DOMINANCE = "dominance"
    INDEPENDENCE = "independence"
    EX_POST_RANDOMIZATION = "ex_post_randomization"
    FAVORABLE_MIXING_MONOTONICITY = "favorable_mixing_monotonicity"
    # Not selectable: quantifies over real intervals, reported "not-audited".
    CONTINUITY = "continuity"


ALL_AXIOMS = frozenset(Axiom) - {Axiom.CONTINUITY}

#: Axioms each criterion's representation is known to satisfy; a non-vacuous
#: failure on one of these indicates an implementation bug, not a modeling
#: choice.
REQUIRED_AXIOMS: dict[str, frozenset[Axiom]] = {
    "bml": frozenset(
        {
            Axiom.COMPLETENESS_FOR_LOTTERIES,
            Axiom.TRANSITIVITY,
            Axiom.PREFERENCE_FOR_FLEXIBILITY,
            Axiom.DOMINANCE,
            Axiom.INDEPENDENCE,
            Axiom.EX_POST_RANDOMIZATION,
        }
    ),
    "jml": frozenset(
        {
            Axiom.COMPLETENESS,
            Axiom.UNAMBIGUOUS_TRANSITIVITY,
            Axiom.FAVORABLE_MIXING_MONOTONICITY,
            Axiom.INDEPENDENCE,
        }
    ),
    "hml": frozenset(
        {
            Axiom.REFLEXIVITY,
            Axiom.UNAMBIGUOUS_TRANSITIVITY,
            Axiom.COMPLETENESS_FOR_LOTTERIES,
        }
    ),
}
REQUIRED_AXIOMS["sl"] = REQUIRED_AXIOMS["bml"] | {Axiom.COMPLETENESS}

STATUS_PASS_ON_GRID = "pass-on-grid"
STATUS_NOT_AUDITED = "not-audited"


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for corpus generation and axiom checking.

    ``alpha_grid`` entries must lie strictly inside (0, 1); gridded axioms
    (independence, favorable mixing monotonicity) are only checked at those
    mixture weights, each once (a repeated weight keeps its first place).
    ``max_tuples`` is a safety valve for pathological configurations; at
    the default corpus sizes every axiom is enumerated exhaustively.  An
    axiom that stops at the cap without a failure is reported "truncated",
    never "pass".
    """

    axioms: frozenset[Axiom] = ALL_AXIOMS
    corpus_size: int = 8
    alpha_grid: tuple[Fraction, ...] = (Fraction(1, 2),)
    seed: int = 0
    max_tuples: int = 100_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "axioms", frozenset(self.axioms))
        grid = tuple(dict.fromkeys(Fraction(a) for a in self.alpha_grid))
        object.__setattr__(self, "alpha_grid", grid)
        if not self.axioms:
            raise ValidationError("audit needs at least one axiom")
        if Axiom.CONTINUITY in self.axioms:
            raise ValidationError("continuity is not finitely checkable and cannot be selected")
        if any(not 0 < a < 1 for a in self.alpha_grid):
            raise BadWeightError("alpha grid entries must lie strictly between 0 and 1")
        if self.corpus_size < 1:
            raise ValidationError("corpus size must be positive")


@dataclass(frozen=True)
class AxiomResult:
    """Per-axiom audit outcome; fail results carry a replayable witness."""

    axiom: Axiom
    status: str
    counterexample: Optional[tuple[Menu, ...]] = None
    alpha: Optional[Fraction] = None
    betas: Optional[tuple[Fraction, ...]] = None
    tuples_checked: int = 0
    antecedents: int = 0

    @property
    def failed(self) -> bool:
        return self.status == STATUS_FAIL

    def to_record(self) -> dict:
        record = {
            "axiom": self.axiom.value,
            "status": self.status,
            "tuples_checked": self.tuples_checked,
            "antecedents": self.antecedents,
        }
        if self.alpha is not None:
            record["alpha"] = str(self.alpha)
        if self.betas is not None:
            record["betas"] = [str(b) for b in self.betas]
        if self.counterexample is not None:
            record["counterexample_menus"] = len(self.counterexample)
        return record


@dataclass(frozen=True)
class AuditReport:
    results: tuple[AxiomResult, ...]

    @property
    def failures(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if r.failed)

    @property
    def truncations(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if r.status == STATUS_TRUNCATED)

    @property
    def passed(self) -> bool:
        """No axiom failed and every axiom was enumerated to the end."""
        return not self.failures and not self.truncations

    def result_for(self, axiom: Axiom) -> Optional[AxiomResult]:
        for result in self.results:
            if result.axiom is axiom:
                return result
        return None

    def to_records(self) -> list[dict]:
        return [r.to_record() for r in self.results]


# ---------------------------------------------------------------------------
# Seeded random generation
# ---------------------------------------------------------------------------


def _random_distribution(rng: random.Random, labels: Sequence[str]) -> dict[str, Fraction]:
    """Random exact distribution with small integer weights (never all zero)."""
    weights = [rng.randint(0, 4) for _ in labels]
    if not any(weights):
        weights[rng.randrange(len(labels))] = 1
    total = sum(weights)
    return {label: Fraction(w, total) for label, w in zip(labels, weights) if w}


def random_lottery(rng: random.Random, inst: Instance) -> Lottery:
    if rng.random() < 0.4:
        return Lottery.degenerate(rng.choice(inst.prizes))
    return Lottery(_random_distribution(rng, inst.prizes))


def random_posterior(rng: random.Random, inst: Instance) -> Posterior:
    if rng.random() < 0.3:
        return Posterior.degenerate(rng.choice(inst.states))
    return Posterior(_random_distribution(rng, inst.states))


def random_act(rng: random.Random, inst: Instance) -> Act:
    return Act({state: random_lottery(rng, inst) for state in inst.states})


def random_menu(rng: random.Random, inst: Instance, max_acts: int = 3) -> Menu:
    count = rng.randint(1, max_acts)
    return Menu(tuple(random_act(rng, inst) for _ in range(count)))


def random_structure(rng: random.Random, inst: Instance, max_support: int = 3) -> InfoStructure:
    count = rng.randint(1, max_support)
    posteriors: list[Posterior] = []
    for _ in range(count * 3):
        candidate = random_posterior(rng, inst)
        if candidate not in posteriors:
            posteriors.append(candidate)
        if len(posteriors) == count:
            break
    weights = [rng.randint(1, 4) for _ in posteriors]
    total = sum(weights)
    return InfoStructure(tuple((p, Fraction(w, total)) for p, w in zip(posteriors, weights)))


def random_credal_set(rng: random.Random, inst: Instance, max_generators: int = 3) -> CredalSet:
    count = rng.randint(1, max_generators)
    return CredalSet(tuple(random_structure(rng, inst) for _ in range(count)))


def random_collection(
    rng: random.Random,
    inst: Instance,
    max_members: int = 3,
    max_generators: int = 2,
) -> Collection:
    count = rng.randint(1, max_members)
    return Collection(
        tuple(random_credal_set(rng, inst, max_generators) for _ in range(count))
    )


def random_instance(
    rng: random.Random,
    max_states: int = 3,
    max_prizes: int = 4,
) -> Instance:
    """A small random decision environment with integer utilities (nonconstant)."""
    n_states = rng.randint(1, max_states)
    n_prizes = rng.randint(2, max_prizes)
    states = tuple(f"s{i + 1}" for i in range(n_states))
    prizes = tuple(f"z{i + 1}" for i in range(n_prizes))
    while True:
        utility = {z: Fraction(rng.randint(0, 6)) for z in prizes}
        if len(set(utility.values())) > 1:
            return Instance(states=states, prizes=prizes, utility=utility)


def generate_corpus(inst: Instance, config: AuditConfig) -> list[Menu]:
    """Deterministic menu corpus of exactly ``config.corpus_size`` menus.

    The corpus front-loads structure the axioms need to bite: constant
    menus, a strict-dominance pair (a menu and its mixture toward the worst
    prize), and a subset chain; the rest is random menus on the probability
    grid.  The same seed always yields the same corpus, and its menus are
    interned on *inst*, so calls with one instance return the same objects.
    """
    rng = random.Random(config.seed)
    best = Lottery.degenerate(inst.best_prize())
    worst = Lottery.degenerate(inst.worst_prize())
    mid = mix_lotteries(best, worst, Fraction(1, 2))

    structured: list[Menu] = []
    structured.append(constant_menu(inst, best))
    structured.append(constant_menu(inst, mid))
    # Acts strictly above the worst utility in every state, so mixing the
    # menu toward the worst prize is strictly statewise dominated.
    strict_upper = Menu(
        (
            constant_menu(inst, best).acts[0],
            Act(
                {
                    state: mix_lotteries(best, worst, Fraction(2, 3))
                    for state in inst.states
                }
            ),
        )
    )
    structured.append(strict_upper)
    structured.append(mix_menus(strict_upper, constant_menu(inst, worst), Fraction(1, 2)))
    bigger = random_menu(rng, inst, max_acts=3).union(constant_menu(inst, mid))
    structured.append(bigger)
    structured.append(Menu(bigger.acts[:1]))

    corpus = structured[: config.corpus_size]
    while len(corpus) < config.corpus_size:
        corpus.append(random_menu(rng, inst))
    return [inst._intern(menu) for menu in corpus]


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------

def _test_axiom(
    axiom: Axiom,
    cmp: Criterion,
    menus: tuple[Menu, ...],
    alpha: Optional[Fraction],
    betas: Optional[tuple[Fraction, ...]],
) -> str:
    """Evaluate one axiom on one concrete tuple: holds / vacuous / violated."""
    inst = cmp.instance
    if axiom is Axiom.COMPLETENESS_FOR_LOTTERIES:
        F, G = menus
        if not (_is_lottery_menu(F) and _is_lottery_menu(G)):
            return _VACUOUS
        return _VIOLATED if cmp.compare(F, G) is Verdict.INCOMPARABLE else _HOLDS
    if axiom is Axiom.COMPLETENESS:
        F, G = menus
        return _VIOLATED if cmp.compare(F, G) is Verdict.INCOMPARABLE else _HOLDS
    if axiom is Axiom.TRANSITIVITY:
        F, G, H = menus
        if cmp.weakly_prefers(F, G) and cmp.weakly_prefers(G, H):
            return _HOLDS if cmp.weakly_prefers(F, H) else _VIOLATED
        return _VACUOUS
    if axiom is Axiom.UNAMBIGUOUS_TRANSITIVITY:
        F, G, H = menus
        fired = False
        if dominates(F, G, inst) and cmp.weakly_prefers(G, H):
            fired = True
            if not cmp.weakly_prefers(F, H):
                return _VIOLATED
        if cmp.weakly_prefers(F, G) and dominates(G, H, inst):
            fired = True
            if not cmp.weakly_prefers(F, H):
                return _VIOLATED
        return _HOLDS if fired else _VACUOUS
    if axiom is Axiom.REFLEXIVITY:
        (F,) = menus
        return _HOLDS if cmp.weakly_prefers(F, F) else _VIOLATED
    if axiom is Axiom.PREFERENCE_FOR_FLEXIBILITY:
        F, G = menus
        if not G.issubset(F):
            return _VACUOUS
        return _HOLDS if cmp.weakly_prefers(F, G) else _VIOLATED
    if axiom is Axiom.DOMINANCE:
        F, g_menu = menus
        if len(g_menu) != 1 or not dominates(F, g_menu, inst):
            return _VACUOUS
        widened = inst._intern(F.union(g_menu))
        return _HOLDS if cmp.compare(F, widened) is Verdict.INDIFFERENT else _VIOLATED
    if axiom is Axiom.INDEPENDENCE:
        F, G, H = menus
        assert alpha is not None
        plain = cmp.compare(F, G)
        mixed = cmp.compare(_mixed(inst, F, H, alpha), _mixed(inst, G, H, alpha))
        return _HOLDS if plain is mixed else _VIOLATED
    if axiom is Axiom.EX_POST_RANDOMIZATION:
        (F,) = menus
        assert betas is not None
        spread = _randomize(F, betas, partial(_mixed, inst))
        return _HOLDS if cmp.compare(spread, F) is Verdict.INDIFFERENT else _VIOLATED
    if axiom is Axiom.FAVORABLE_MIXING_MONOTONICITY:
        F, G, H, H2 = menus
        assert alpha is not None
        if not (cmp.strictly_prefers(F, G) and cmp.strictly_prefers(H, H2)):
            return _VACUOUS
        left = _mixed(inst, F, H, alpha)
        right = _mixed(inst, G, H2, alpha)
        return _HOLDS if cmp.strictly_prefers(left, right) else _VIOLATED
    raise ValueError(f"axiom {axiom} has no tuple test")


def _mixed(inst: Instance, F: Menu, G: Menu, alpha: Fraction) -> Menu:
    """``mix_menus(F, G, alpha)``, memoized and interned on the instance.

    Each act mixture ``mix_acts(f, g, alpha)`` is also built once per
    instance, in the same table (Act and Menu keys never compare equal).
    The mixed menu is always built and evaluated: the mixing axioms must
    not be decided through the linearity of the benefit in the menu, which
    is what they test.
    """
    table = inst._mixtures
    menu = table.get((F, G, alpha))
    if menu is None:
        acts = []
        for f in F:
            for g in G:
                key = (f, g, alpha)
                act = table.get(key)
                if act is None:
                    act = table[key] = mix_acts(f, g, alpha)
                acts.append(act)
        menu = table[F, G, alpha] = inst._intern(Menu(tuple(acts)))
    return menu


def _is_lottery_menu(menu: Menu) -> bool:
    return len(menu) == 1 and menu.acts[0].is_constant()


def _axiom_tuples(
    axiom: Axiom,
    corpus: Sequence[Menu],
    config: AuditConfig,
    inst: Instance,
) -> Iterator[tuple[tuple[Menu, ...], Optional[Fraction], Optional[tuple[Fraction, ...]]]]:
    """All candidate tuples for one axiom, in deterministic order.

    The dominance singletons are menus built here, so they are interned on
    *inst* like the corpus.
    """
    if axiom in (Axiom.COMPLETENESS, Axiom.COMPLETENESS_FOR_LOTTERIES):
        for F, G in itertools.combinations(corpus, 2):
            yield (F, G), None, None
    elif axiom in (Axiom.TRANSITIVITY, Axiom.UNAMBIGUOUS_TRANSITIVITY):
        for triple in itertools.product(corpus, repeat=3):
            yield tuple(triple), None, None
    elif axiom is Axiom.REFLEXIVITY:
        for F in corpus:
            yield (F,), None, None
    elif axiom is Axiom.PREFERENCE_FOR_FLEXIBILITY:
        for F, G in itertools.permutations(corpus, 2):
            yield (F, G), None, None
    elif axiom is Axiom.DOMINANCE:
        acts = dict.fromkeys(act for menu in corpus for act in menu)
        singletons = [inst._intern(Menu((act,))) for act in acts]
        for F in corpus:
            for singleton in singletons:
                yield (F, singleton), None, None
    elif axiom is Axiom.INDEPENDENCE:
        for F, G in itertools.combinations(corpus, 2):
            for H in corpus:
                for alpha in config.alpha_grid:
                    yield (F, G, H), alpha, None
    elif axiom is Axiom.EX_POST_RANDOMIZATION:
        beta_lists = [(alpha, 1 - alpha) for alpha in config.alpha_grid]
        beta_lists.append((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        for F in corpus:
            for betas in beta_lists:
                yield (F,), None, betas
    elif axiom is Axiom.FAVORABLE_MIXING_MONOTONICITY:
        for F, G in itertools.permutations(corpus, 2):
            for H, H2 in itertools.permutations(corpus, 2):
                for alpha in config.alpha_grid:
                    yield (F, G, H, H2), alpha, None
    else:
        raise ValueError(f"axiom {axiom} is not tuple-enumerable")


def _shrink_counterexample(
    axiom: Axiom,
    cmp: Criterion,
    menus: tuple[Menu, ...],
    alpha: Optional[Fraction],
    betas: Optional[tuple[Fraction, ...]],
) -> tuple[Menu, ...]:
    """Greedily drop acts from the witness menus while the violation persists."""
    current = menus
    progress = True
    while progress:
        progress = False
        for i, menu in enumerate(current):
            if len(menu) <= 1:
                continue
            for act in menu:
                smaller = cmp.instance._intern(Menu(tuple(a for a in menu.acts if a != act)))
                candidate = current[:i] + (smaller,) + current[i + 1:]
                if _test_axiom(axiom, cmp, candidate, alpha, betas) == _VIOLATED:
                    current = candidate
                    progress = True
                    break
            if progress:
                break
    return current


def _check_nontriviality(cmp: Criterion, corpus: Sequence[Menu]) -> AxiomResult:
    # An existence claim: the first strictly ranked pair refutes triviality.
    # With no strict pair in this corpus it cannot fail finitely.
    status, _, checked, fired = _scan(
        itertools.permutations(corpus, 2),
        lambda F, G: _VIOLATED if cmp.strictly_prefers(F, G) else _VACUOUS,
    )
    status = STATUS_PASS if status == STATUS_FAIL else STATUS_VACUOUS
    return AxiomResult(Axiom.NONTRIVIALITY, status, tuples_checked=checked, antecedents=fired)


def audit(cmp: Criterion, corpus: Sequence[Menu], config: AuditConfig) -> AuditReport:
    """Check every selected axiom against the criterion over the corpus.

    Tuple enumeration is exhaustive up to ``config.max_tuples`` per axiom;
    an axiom with tuples left over and no failure among those checked is
    reported "truncated".  Gridded axioms report "pass-on-grid" rather than
    "pass".  A trailing entry records that continuity is not audited.
    """
    corpus = list(corpus)
    results: list[AxiomResult] = []
    for axiom in Axiom:
        if axiom not in config.axioms or axiom is Axiom.CONTINUITY:
            continue
        if axiom is Axiom.NONTRIVIALITY:
            results.append(_check_nontriviality(cmp, corpus))
            continue
        status, witness, checked, fired = _scan(
            _axiom_tuples(axiom, corpus, config, cmp.instance),
            partial(_test_axiom, axiom, cmp),
            config.max_tuples,
        )
        if status == STATUS_FAIL:
            menus, alpha, betas = witness
            shrunk = _shrink_counterexample(axiom, cmp, menus, alpha, betas)
            results.append(AxiomResult(axiom, status, shrunk, alpha, betas, checked, fired))
            continue
        gridded = axiom in (Axiom.INDEPENDENCE, Axiom.FAVORABLE_MIXING_MONOTONICITY)
        if status == STATUS_PASS and gridded:
            status = STATUS_PASS_ON_GRID
        results.append(AxiomResult(axiom, status, tuples_checked=checked, antecedents=fired))
    results.append(AxiomResult(Axiom.CONTINUITY, STATUS_NOT_AUDITED))
    return AuditReport(tuple(results))


# ---------------------------------------------------------------------------
# Cross audit: the full criterion-by-axiom matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossAuditEntry:
    criterion: str
    report: AuditReport


@dataclass(frozen=True)
class CrossAuditReport:
    entries: tuple[CrossAuditEntry, ...]

    @property
    def all_passed(self) -> bool:
        return all(entry.report.passed for entry in self.entries)

    def to_records(self) -> list[dict]:
        return [
            {"criterion": entry.criterion, **record}
            for entry in self.entries
            for record in entry.report.to_records()
        ]


def cross_audit(
    inst: Instance,
    seed: int = 0,
    config: Optional[AuditConfig] = None,
) -> CrossAuditReport:
    """Audit each criterion against the axioms its representation guarantees.

    Draws a seeded credal set and collection over the instance, generates a
    corpus, and runs the unanimity, veto, and hierarchical comparators
    against their respective required-axiom sets.  Everything must pass
    (vacuous rows are acceptable); a failure points at an implementation
    bug.
    """
    rng = random.Random(seed)
    credal = random_credal_set(rng, inst)
    collection = random_collection(rng, inst)
    if config is None:
        config = AuditConfig(corpus_size=5, seed=seed)
    # The corpus depends only on the seed and the size, so all three
    # criteria are audited over the same menus.
    corpus = generate_corpus(inst, config)
    criteria = (
        ("bml", BmlComparator(inst, credal)),
        ("jml", JmlComparator(inst, credal)),
        ("hml", HmlComparator(inst, collection)),
    )
    return CrossAuditReport(
        tuple(
            CrossAuditEntry(
                name, audit(criterion, corpus, replace(config, axioms=REQUIRED_AXIOMS[name]))
            )
            for name, criterion in criteria
        )
    )
