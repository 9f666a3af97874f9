"""Brute-force axiom auditing for menu-preference comparators.

Generates seeded menu corpora, checks each selected axiom exhaustively over
tuples of the axiom's arity (mixtures drawn from a rational grid), and
reports pass / fail / vacuous per axiom, or truncated when the tuple cap
cut the enumeration short.  Failures carry a replayable, shrunken
counterexample: rerunning the audit on the counterexample menus alone
reproduces the failure.  Each axiom is defined in one place, its entry in
the spec table `_SPECS`, which gives either the tuples it is checked on and
its test of one, or, where the antecedent reads only relations between
corpus menus (nontriviality, transitivity, unambiguous transitivity,
favorable mixing monotonicity), just the candidates whose antecedent fires,
decided once per audit on bitsets over the corpus, at their positions in
the plain enumeration; the report, counts and truncation point stay those
of that enumeration.

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
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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
    as_fraction,
    constant_menu,
)
from .comparative import _VACUOUS, _VIOLATED, _bits, _each, _pair_position, _scan, _strict
from .comparative import STATUS_FAIL, STATUS_PASS, STATUS_TRUNCATED, STATUS_VACUOUS
from .criteria import BmlComparator, Criterion, HmlComparator, JmlComparator
from .errors import BadWeightError, ValidationError
from .evaluation import (
    _dominance_relation,
    _randomize,
    dominates,
    mix_acts,
    mix_lotteries,
    mix_menus,
)


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

    ``axioms`` holds `Axiom` members only.  ``alpha_grid`` holds at least one
    weight, each an exact rational (see `as_fraction`) strictly inside
    (0, 1); gridded axioms (independence, favorable mixing monotonicity) are
    only checked at those mixture weights, each once (a repeated weight
    keeps its first place).
    ``max_tuples`` (at least 1) is a safety valve for pathological
    configurations; at the default corpus sizes every axiom is enumerated
    exhaustively.  An axiom that stops at the cap without a failure is
    reported "truncated", never "pass".
    """

    axioms: frozenset[Axiom] = ALL_AXIOMS
    corpus_size: int = 8
    alpha_grid: tuple[Fraction, ...] = (Fraction(1, 2),)
    seed: int = 0
    max_tuples: int = 100_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "axioms", frozenset(self.axioms))
        grid = tuple(dict.fromkeys(as_fraction(a) for a in self.alpha_grid))
        object.__setattr__(self, "alpha_grid", grid)
        if not self.axioms:
            raise ValidationError("audit needs at least one axiom")
        stray = sorted(repr(a) for a in self.axioms if not isinstance(a, Axiom))
        if stray:
            raise ValidationError(f"audit axioms must be Axiom members, got {', '.join(stray)}")
        if Axiom.CONTINUITY in self.axioms:
            raise ValidationError("continuity is not finitely checkable and cannot be selected")
        if not self.alpha_grid:
            raise BadWeightError("alpha grid needs at least one weight")
        if any(not 0 < a < 1 for a in self.alpha_grid):
            raise BadWeightError("alpha grid entries must lie strictly between 0 and 1")
        if self.corpus_size < 1:
            raise ValidationError("corpus size must be positive")
        if self.max_tuples < 1:
            raise ValidationError(f"max_tuples must be at least 1, got {self.max_tuples}")


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
        return next((result for result in self.results if result.axiom is axiom), None)

    def to_records(self) -> list[dict]:
        return [r.to_record() for r in self.results]


# ---------------------------------------------------------------------------
# Seeded random generation
# ---------------------------------------------------------------------------


def _random_distribution(rng: random.Random, kind: type, labels: Sequence[str]):
    """Random exact *kind* distribution with small integer weights (never all zero),
    each label's weight over their total handed to the measure rule's integer core."""
    weights = [rng.randint(0, 4) for _ in labels]
    if not any(weights):
        weights[rng.randrange(len(labels))] = 1
    return kind._of_numerators(dict(zip(labels, weights)), sum(weights))


def random_lottery(rng: random.Random, inst: Instance) -> Lottery:
    if rng.random() < 0.4:
        return Lottery.degenerate(rng.choice(inst.prizes))
    return _random_distribution(rng, Lottery, inst.prizes)


def random_posterior(rng: random.Random, inst: Instance) -> Posterior:
    if rng.random() < 0.3:
        return Posterior.degenerate(rng.choice(inst.states))
    return _random_distribution(rng, Posterior, inst.states)


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
    upper = Act({state: mix_lotteries(best, worst, Fraction(2, 3)) for state in inst.states})
    strict_upper = Menu((constant_menu(inst, best).acts[0], upper))
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

class _Spec(NamedTuple):
    """One axiom, given one of two ways.

    Either the menu tuples ``tuples(corpus, inst)``, each tried with every
    ``(alpha, betas)`` of ``weights(config)``, and ``test(cmp, menus, alpha,
    betas)``: `_VACUOUS` when the antecedent does not fire, else whether the
    consequent holds.

    Or, where the antecedent reads only relations between corpus menus,
    ``fired(cmp, corpus, weights)``: the number of candidates, and the
    candidates whose antecedent fires as `_scan` takes them, decided on the
    corpus relations as bitsets.  Where a consequent is not decided there,
    ``consequent(cmp, menus, alpha, betas)`` decides it.  Such an axiom
    keeps a ``test`` only where a failure is shrunk with it."""

    tuples: Optional[Callable[[Sequence[Menu], Instance], Iterable[tuple[Menu, ...]]]] = None
    test: Optional[Callable[..., Optional[bool]]] = None
    weights: Callable[[AuditConfig], list[tuple]] = lambda config: [(None, None)]
    fired: Optional[Callable[..., tuple[int, Iterable[tuple]]]] = None
    consequent: Optional[Callable[..., bool]] = None

    def candidates(self, corpus: Sequence[Menu], config: AuditConfig, inst: Instance):
        """Every ``(menus, alpha, betas)`` in deterministic order, weights varying fastest."""
        weights = self.weights(config)
        for menus in self.tuples(corpus, inst):
            for alpha, betas in weights:
                yield menus, alpha, betas


def _grid(config: AuditConfig) -> list[tuple]:
    return [(alpha, None) for alpha in config.alpha_grid]


def _randomizations(config: AuditConfig) -> list[tuple]:
    return [(None, (a, 1 - a)) for a in config.alpha_grid] + [(None, (Fraction(1, 3),) * 3)]


def _with_singletons(corpus: Sequence[Menu], inst: Instance):
    # The singletons are built here, so they are interned like the corpus.
    acts = dict.fromkeys(act for menu in corpus for act in menu)
    return itertools.product(corpus, [inst._intern(Menu((act,))) for act in acts])


def _strictly_ranked(cmp, corpus, weights):
    """Nontriviality's fired pairs: the strictly ranked ones, each yielded as
    a "violation", which `audit` reads as the witness."""
    n = len(corpus)

    def fired():
        strict = _strict(cmp, corpus)
        for i, F in enumerate(corpus):
            for j in _bits(strict[i]):
                yield _pair_position(i, j, n), ((F, corpus[j]), None, None), _VIOLATED

    return n * (n - 1), fired()


def _completeness_for_lotteries(cmp, menus, alpha, betas):
    lotteries = all(len(menu) == 1 and menu.acts[0].is_constant() for menu in menus)
    return _completeness(cmp, menus, alpha, betas) if lotteries else _VACUOUS


def _completeness(cmp, menus, alpha, betas):
    return cmp.compare(*menus) is not Verdict.INCOMPARABLE


def _transitivity(cmp, menus, alpha, betas):
    F, G, H = menus
    if cmp.weakly_prefers(F, G) and cmp.weakly_prefers(G, H):
        return cmp.weakly_prefers(F, H)
    return _VACUOUS


def _chains(cmp, corpus, weights):
    """Transitivity's fired triples: G after F and H after G in the weak relation."""
    n = len(corpus)

    def fired():
        up = cmp._relation(corpus)
        for i, F in enumerate(corpus):
            for j in _bits(up[i]):
                G = corpus[j]
                for k in _bits(up[j]):
                    yield (i * n + j) * n + k, ((F, G, corpus[k]), None, None), up[i] >> k & 1

    return n**3, fired()


def _unambiguous_transitivity(cmp, menus, alpha, betas):
    F, G, H = menus
    if (dominates(F, G, cmp.instance) and cmp.weakly_prefers(G, H)) or (
        cmp.weakly_prefers(F, G) and dominates(G, H, cmp.instance)
    ):
        return cmp.weakly_prefers(F, H)
    return _VACUOUS


def _unambiguous_chains(cmp, corpus, weights):
    """Unambiguous transitivity's fired triples: one link is dominance, the other preference."""
    n = len(corpus)

    def fired():
        dom = _dominance_relation(corpus, cmp.instance, False)
        up = cmp._relation(corpus)
        for i, F in enumerate(corpus):
            for j, G in enumerate(corpus):
                after = (up[j] if dom[i] >> j & 1 else 0) | (dom[j] if up[i] >> j & 1 else 0)
                for k in _bits(after):
                    yield (i * n + j) * n + k, ((F, G, corpus[k]), None, None), up[i] >> k & 1

    return n**3, fired()


def _reflexivity(cmp, menus, alpha, betas):
    (F,) = menus
    return cmp.weakly_prefers(F, F)


def _preference_for_flexibility(cmp, menus, alpha, betas):
    F, G = menus
    return cmp.weakly_prefers(F, G) if G.issubset(F) else _VACUOUS


def _dominance(cmp, menus, alpha, betas):
    F, g_menu = menus
    inst = cmp.instance
    if len(g_menu) != 1 or not dominates(F, g_menu, inst):
        return _VACUOUS
    return cmp.compare(F, inst._intern(F.union(g_menu))) is Verdict.INDIFFERENT


def _independence(cmp, menus, alpha, betas):
    F, G, H = menus
    inst = cmp.instance
    return cmp.compare(F, G) is cmp.compare(_mixed(inst, F, H, alpha), _mixed(inst, G, H, alpha))


def _ex_post_randomization(cmp, menus, alpha, betas):
    (F,) = menus
    spread = _randomize(F, betas, partial(_mixed, cmp.instance))
    return cmp.compare(spread, F) is Verdict.INDIFFERENT


def _favorable_mixing_monotonicity(cmp, menus, alpha, betas):
    F, G, H, H2 = menus
    if not (cmp.strictly_prefers(F, G) and cmp.strictly_prefers(H, H2)):
        return _VACUOUS
    return _mixing_keeps_strict(cmp, menus, alpha, betas)


def _mixing_keeps_strict(cmp, menus, alpha, betas):
    F, G, H, H2 = menus
    inst = cmp.instance
    return cmp.strictly_prefers(_mixed(inst, F, H, alpha), _mixed(inst, G, H2, alpha))


def _strict_pairs_of_pairs(cmp, corpus, weights):
    """Favorable mixing monotonicity's fired candidates: two strictly ranked pairs, each weight."""
    n, w = len(corpus), len(weights)
    pairs = n * (n - 1)

    def fired():
        strict = _strict(cmp, corpus)
        ranked = [
            (_pair_position(i, j, n), F, corpus[j])
            for i, F in enumerate(corpus)
            for j in _bits(strict[i])
        ]
        for p, F, G in ranked:
            for q, H, H2 in ranked:
                for a, (alpha, betas) in enumerate(weights):
                    yield (p * pairs + q) * w + a, ((F, G, H, H2), alpha, betas), None

    return pairs * pairs * w, fired()


#: The one definition of each selectable axiom, in `Axiom` order.
_SPECS: dict[Axiom, _Spec] = {
    Axiom.NONTRIVIALITY: _Spec(fired=_strictly_ranked),
    Axiom.COMPLETENESS_FOR_LOTTERIES: _Spec(
        lambda corpus, inst: itertools.combinations(corpus, 2), _completeness_for_lotteries
    ),
    Axiom.COMPLETENESS: _Spec(
        lambda corpus, inst: itertools.combinations(corpus, 2), _completeness
    ),
    Axiom.TRANSITIVITY: _Spec(test=_transitivity, fired=_chains),
    Axiom.UNAMBIGUOUS_TRANSITIVITY: _Spec(
        test=_unambiguous_transitivity, fired=_unambiguous_chains
    ),
    Axiom.REFLEXIVITY: _Spec(lambda corpus, inst: zip(corpus), _reflexivity),
    Axiom.PREFERENCE_FOR_FLEXIBILITY: _Spec(
        lambda corpus, inst: itertools.permutations(corpus, 2), _preference_for_flexibility
    ),
    Axiom.DOMINANCE: _Spec(_with_singletons, _dominance),
    Axiom.INDEPENDENCE: _Spec(
        lambda corpus, inst: (
            pair + (H,) for pair in itertools.combinations(corpus, 2) for H in corpus
        ),
        _independence,
        _grid,
    ),
    Axiom.EX_POST_RANDOMIZATION: _Spec(
        lambda corpus, inst: zip(corpus), _ex_post_randomization, _randomizations
    ),
    Axiom.FAVORABLE_MIXING_MONOTONICITY: _Spec(
        test=_favorable_mixing_monotonicity,
        weights=_grid,
        fired=_strict_pairs_of_pairs,
        consequent=_mixing_keeps_strict,
    ),
}


def _mixed(inst: Instance, F: Menu, G: Menu, alpha: Fraction) -> Menu:
    """``mix_menus(F, G, alpha)``, memoized and interned on the instance.

    The instance keeps one mixture table per weight, found by the weight's
    integer pair ``(a, b)`` for ``alpha = a / b``, which hashes and compares
    in C however many Fraction objects carry the same weight; so *alpha* is
    looked up once per call.  In it ``(F, G)`` maps to the mixed menu and
    ``(f, g)`` to each act mixture ``mix_acts(f, g, alpha)``, built once per
    instance (Act and Menu keys never compare equal).  Every act built is interned like the
    menu, so the memos meet each mixed act as one object per value.  The
    mixed menu is always built and evaluated: the mixing axioms must not be
    decided through the linearity of the benefit in the menu, which is what
    they test.
    """
    weight = (alpha.numerator, alpha.denominator)
    table = inst._mixtures.get(weight)
    if table is None:
        table = inst._mixtures[weight] = {}
    menu = table.get((F, G))
    if menu is None:
        acts = []
        for f in F:
            for g in G:
                act = table.get((f, g))
                if act is None:
                    act = table[f, g] = inst._intern_act(mix_acts(f, g, alpha))
                acts.append(act)
        menu = table[F, G] = inst._intern(Menu(tuple(acts)))
    return menu


def _shrink_counterexample(
    test: Callable[..., Optional[bool]],
    cmp: Criterion,
    menus: tuple[Menu, ...],
    alpha: Optional[Fraction],
    betas: Optional[tuple[Fraction, ...]],
) -> tuple[Menu, ...]:
    """Greedily drop acts from the witness menus while *test* still finds a violation:
    each round keeps the first violated tuple one act smaller, menu by menu, act by act."""
    intern = cmp.instance._intern
    while True:
        smaller = (
            menus[:i] + (intern(Menu(tuple(a for a in menu.acts if a != act))),) + menus[i + 1:]
            for i, menu in enumerate(menus)
            if len(menu) > 1
            for act in menu
        )
        violated = next((c for c in smaller if test(cmp, c, alpha, betas) == _VIOLATED), None)
        if violated is None:
            return menus
        menus = violated


def audit(cmp: Criterion, corpus: Sequence[Menu], config: AuditConfig) -> AuditReport:
    """Check every selected axiom against the criterion over the corpus.

    Tuple enumeration is exhaustive up to ``config.max_tuples`` per axiom;
    an axiom with tuples left over and no failure among those checked is
    reported "truncated".  Gridded axioms report "pass-on-grid" rather than
    "pass".  Nontriviality is scanned to the end whatever the cap: its
    first strictly ranked pair makes it pass, and with none it is vacuous.
    A trailing entry records that continuity is not audited.
    """
    corpus = list(corpus)
    results: list[AxiomResult] = []
    for axiom, spec in _SPECS.items():
        if axiom not in config.axioms:
            continue
        existence = axiom is Axiom.NONTRIVIALITY
        if spec.fired is None:
            total, candidates = None, _each(spec.candidates(corpus, config, cmp.instance))
        else:
            total, candidates = spec.fired(cmp, corpus, spec.weights(config))
        test = spec.consequent or spec.test
        status, witness, checked, fired = _scan(
            candidates,
            partial(test, cmp) if test else None,
            total,
            None if existence else config.max_tuples,
        )
        shrunk = alpha = betas = None
        if existence:
            status = STATUS_PASS if status == STATUS_FAIL else STATUS_VACUOUS
        elif status == STATUS_FAIL:
            menus, alpha, betas = witness
            shrunk = _shrink_counterexample(spec.test, cmp, menus, alpha, betas)
        elif status == STATUS_PASS and any(a is not None for a, _ in spec.weights(config)):
            # The candidates carry an α, so the pass only covers the grid.
            status = STATUS_PASS_ON_GRID
        results.append(AxiomResult(axiom, status, shrunk, alpha, betas, checked, fired))
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
