"""Brute-force axiom auditing for menu-preference comparators.

Generates seeded menu corpora, checks each selected axiom exhaustively over
tuples of the axiom's arity (mixtures drawn from a rational grid), and
reports pass / fail / vacuous per axiom, or truncated when the cap on fired
tuples stopped the check.  Each axiom is defined once, by the fired rule of
its entry in the spec table `_SPECS`, and decided on bitset relations over
the corpus, so only the tuples where its antecedent fires are visited, at
their positions in the plain enumeration, whose counts the report keeps.
An audit call decides the weak relation over the corpus once, for every
axiom.  The mixing axioms each read one relation per weight over all the
menus mixed from two corpus menus; dominance and ex-post randomization
read one relation per batch of candidates, over each corpus menu F and its
union ``F ∪ {g}`` or its spread, so no two-menu comparison is made.
Failures carry a shrunken counterexample, shrunk by the same rule run over
the witness menus alone, so it replays: rerunning the audit on the
counterexample menus alone reproduces the failure.

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
    _members,
    as_fraction,
    constant_menu,
)
from .comparative import _bits, _pair_position, _scan, _strict
from .comparative import STATUS_FAIL, STATUS_PASS, STATUS_TRUNCATED, STATUS_VACUOUS
from .criteria import BmlComparator, Criterion, HmlComparator, JmlComparator
from .errors import BadWeightError, ValidationError
from .evaluation import (
    _dominance_relation,
    _lottery_mixer,
    _mix_acts,
    _randomize,
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
    keeps its first place).  ``corpus_size``, ``seed`` and ``max_tuples``
    are ints, not bools.  ``max_tuples`` (at least 1) is a safety valve for
    pathological configurations: it bounds the fired tuples an axiom
    decides (the rest are vacuous, decided on exact bitsets).  An axiom
    with a fired tuple past the cap is reported "truncated", never "pass".
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
        for name in ("corpus_size", "seed", "max_tuples"):
            if not isinstance(value := getattr(self, name), int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an int, got {value!r}")
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
        """No axiom failed and every axiom was checked to the end."""
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
    _members((inst,), Instance)
    _members((config,), AuditConfig)
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
    """One axiom, defined once by its ``fired(cmp, corpus, up, weights)``: the
    number of candidates, each menu tuple with each ``(alpha, betas)`` of
    ``weights(config)``, and the candidates whose antecedent fires, decided
    on bitset relations, as ``(position, (menus, alpha, betas), holds)``
    triples for `_scan`.  *up* is ``cmp._relation(corpus)``, which the caller
    decides once for all its rules.  The same rule, run over a failure's
    menus alone, shrinks it (see `_shrink_counterexample`)."""

    fired: Callable[..., tuple[int, Iterable[tuple]]]
    weights: Callable[[AuditConfig], list[tuple]] = lambda config: [(None, None)]


def _grid(config: AuditConfig) -> list[tuple]:
    return [(alpha, None) for alpha in config.alpha_grid]


def _randomizations(config: AuditConfig) -> list[tuple]:
    return [(None, (a, 1 - a)) for a in config.alpha_grid] + [(None, (Fraction(1, 3),) * 3)]


def _strictly_ranked(cmp, corpus, up, weights):
    """Nontriviality's fired pairs: the strictly ranked ones, each yielded as
    a "violation", which `audit` reads as the witness."""
    n, strict = len(corpus), _strict(up)
    return n * (n - 1), (
        (_pair_position(i, j, n), ((F, corpus[j]), None, None), False)
        for i, F in enumerate(corpus)
        for j in _bits(strict[i])
    )


def _ranked_pairs(only_lotteries, cmp, corpus, up, weights):
    """Completeness's candidates, the unordered pairs (of one-act constant menus, which
    a shrink leaves as they are, with *only_lotteries*): each holds iff ranked either way."""
    fires = [not only_lotteries or len(m) == 1 and m.acts[0].is_constant() for m in corpus]
    pairs = enumerate(itertools.combinations(range(len(corpus)), 2))
    return len(corpus) * (len(corpus) - 1) // 2, (
        (p, ((corpus[i], corpus[j]), None, None), (up[i] >> j | up[j] >> i) & 1)
        for p, (i, j) in pairs
        if fires[i] and fires[j]
    )


def _chains(cmp, corpus, up, weights):
    """Transitivity's fired triples: G after F and H after G in the weak relation."""
    n = len(corpus)
    return n**3, (
        ((i * n + j) * n + k, ((corpus[i], corpus[j], corpus[k]), None, None), up[i] >> k & 1)
        for i in range(n)
        for j in _bits(up[i])
        for k in _bits(up[j])
    )


def _unambiguous_chains(cmp, corpus, up, weights):
    """Unambiguous transitivity's fired triples: one link is dominance, the other preference."""
    n, dom = len(corpus), _dominance_relation(corpus, cmp.instance, False)
    return n**3, (
        ((i * n + j) * n + k, ((corpus[i], corpus[j], corpus[k]), None, None), up[i] >> k & 1)
        for i in range(n)
        for j in range(n)
        for k in _bits((up[j] if dom[i] >> j & 1 else 0) | (dom[j] if up[i] >> j & 1 else 0))
    )


def _diagonal(cmp, corpus, up, weights):
    """Reflexivity's candidates, every corpus menu: each holds iff weakly preferred to itself."""
    return len(corpus), ((i, ((F,), None, None), up[i] >> i & 1) for i, F in enumerate(corpus))


def _subsets(cmp, corpus, up, weights):
    """Preference for flexibility's fired pairs, G a subset of F: F must be weakly preferred."""
    n = len(corpus)
    return n * (n - 1), (
        (_pair_position(i, j, n), ((F, G), None, None), up[i] >> j & 1)
        for i, F in enumerate(corpus)
        for j, G in enumerate(corpus)
        if j != i and G.issubset(F)
    )


#: Candidate pairs decided by one relation in `_indifferent_pairs`: enough for
#: every candidate of a small corpus, while a capped scan of a large one stops
#: building unions and spreads soon after the cap.
_BATCH_PAIRS = 256


def _indifferent_pairs(cmp, pairs):
    """Whether ``F ~ G`` for each ``(F, G)`` of the iterable *pairs*, in order: two bits of
    one relation per batch of `_BATCH_PAIRS` pairs, over the batch's distinct menus.  The
    pairs are drawn a batch at a time, so a scan stopped at the cap has built menus and
    relations for at most one batch past it."""
    pairs = iter(pairs)
    while batch := list(itertools.islice(pairs, _BATCH_PAIRS)):
        index = {menu: p for p, menu in enumerate(dict.fromkeys(itertools.chain(*batch)))}
        up = cmp._relation(list(index))
        for F, G in batch:
            i, j = index[F], index[G]
            yield up[i] >> j & up[j] >> i & 1


def _dominated_singletons(cmp, corpus, up, weights):
    """Dominance's fired pairs ``(F, {g})``, F a corpus menu that dominates the act g, at
    their positions among all such pairs; one interned singleton per act, in first-seen
    order.  Each consequent, ``F ~ F ∪ {g}``, is read from `_indifferent_pairs`."""
    inst = cmp.instance
    acts = dict.fromkeys(act for menu in corpus for act in menu)
    singletons = [inst._intern(Menu((act,))) for act in acts]
    n, s = len(corpus), len(singletons)
    dom = _dominance_relation([*corpus, *singletons], inst, False)
    fired = [(i, k) for i in range(n) for k in _bits(dom[i] >> n)]
    unions = ((corpus[i], inst._intern(corpus[i].union(singletons[k]))) for i, k in fired)
    return n * s, (
        (i * s + k, ((corpus[i], singletons[k]), None, None), holds)
        for (i, k), holds in zip(fired, _indifferent_pairs(cmp, unions))
    )


def _mixed_relation(cmp, corpus, alpha):
    """Weak preference over every mixture of two corpus menus at weight *alpha*, the one
    relation per weight that both mixing axioms read: ``mix(corpus[i], corpus[k])`` is
    at position ``i * n + k``."""
    return cmp._relation([_mixed(cmp.instance, F, H, alpha) for F in corpus for H in corpus])


def _mixed_relations(cmp, corpus, up, weights):
    """Independence's candidates, each unordered pair (F, G) with each H and weight: it
    holds iff mix(F, H) and mix(G, H) are ranked as F and G are, both ways."""
    n, w = len(corpus), len(weights)
    mixed = [_mixed_relation(cmp, corpus, alpha) for alpha, _ in weights]

    def fired():
        tuples = itertools.product(itertools.combinations(range(n), 2), range(n), range(w))
        for position, ((i, j), k, a) in enumerate(tuples):
            mix, left, right = mixed[a], i * n + k, j * n + k
            holds = not (up[i] >> j ^ mix[left] >> right | up[j] >> i ^ mix[right] >> left) & 1
            yield position, ((corpus[i], corpus[j], corpus[k]), *weights[a]), holds

    return n * (n - 1) // 2 * n * w, fired()


def _randomized(cmp, corpus, up, weights):
    """Ex-post randomization's candidates, every corpus menu with every weight list.  Each
    consequent, ``spread ~ F``, is read from `_indifferent_pairs`."""
    mix, tuples = partial(_mixed, cmp.instance), list(itertools.product(corpus, weights))
    spreads = ((F, _randomize(F, betas, mix)) for F, (_, betas) in tuples)
    return len(tuples), (
        (p, ((F,), *weight), holds)
        for p, ((F, weight), holds) in enumerate(zip(tuples, _indifferent_pairs(cmp, spreads)))
    )


def _strict_pairs_of_pairs(cmp, corpus, up, weights):
    """Favorable mixing monotonicity's fired candidates, two strictly ranked pairs (F, G)
    and (H, H2) with each weight.  Two bits of the weight's relation over the corpus
    mixtures decide mix(F, H) > mix(G, H2)."""
    n, w, strict = len(corpus), len(weights), _strict(up)
    ranked = [(_pair_position(i, j, n), i, j) for i in range(n) for j in _bits(strict[i])]
    pairs, mixed = n * (n - 1), [_mixed_relation(cmp, corpus, alpha) for alpha, _ in weights]

    def fired():
        for p, i, j in ranked:
            for q, k, m in ranked:
                menus = (corpus[i], corpus[j], corpus[k], corpus[m])
                left, right = i * n + k, j * n + m
                for a, mix in enumerate(mixed):
                    holds = mix[left] >> right & 1 and not mix[right] >> left & 1
                    yield (p * pairs + q) * w + a, (menus, *weights[a]), holds

    return pairs * pairs * w, fired()


#: The one definition of each selectable axiom, in `Axiom` order.
_SPECS: dict[Axiom, _Spec] = {
    Axiom.NONTRIVIALITY: _Spec(_strictly_ranked),
    Axiom.COMPLETENESS_FOR_LOTTERIES: _Spec(partial(_ranked_pairs, True)),
    Axiom.COMPLETENESS: _Spec(partial(_ranked_pairs, False)),
    Axiom.TRANSITIVITY: _Spec(_chains),
    Axiom.UNAMBIGUOUS_TRANSITIVITY: _Spec(_unambiguous_chains),
    Axiom.REFLEXIVITY: _Spec(_diagonal),
    Axiom.PREFERENCE_FOR_FLEXIBILITY: _Spec(_subsets),
    Axiom.DOMINANCE: _Spec(_dominated_singletons),
    Axiom.INDEPENDENCE: _Spec(_mixed_relations, _grid),
    Axiom.EX_POST_RANDOMIZATION: _Spec(_randomized, _randomizations),
    Axiom.FAVORABLE_MIXING_MONOTONICITY: _Spec(_strict_pairs_of_pairs, _grid),
}


def _mixed(inst: Instance, F: Menu, G: Menu, alpha: Fraction) -> Menu:
    """``mix_menus(F, G, alpha)``, memoized and interned on the instance.

    The instance keeps one mixture table per weight, found by the weight's
    integer pair ``(a, b)`` for ``alpha = a / b``, which hashes and compares
    in C however many Fraction objects carry the same weight; so *alpha* is
    looked up once per call.  In it ``(F, G)`` maps to the mixed menu,
    ``(f, g)`` to each act mixture and ``(x, y)`` to each lottery mixture
    ``mix_lotteries(x, y, alpha)``, each built once per instance (Lottery,
    Act and Menu keys never compare equal).  Each act is built from its
    parents' lotteries by the public mixers' `_mix_acts`, so it raises as
    `mix_acts` does.  Each act built and each mixed lottery is held like
    the menu (`Instance._held`).  The mixed menu is always built and
    evaluated: the mixing axioms must not be decided through the
    linearity of the benefit in the menu, which is what they test.
    """
    weight = (alpha.numerator, alpha.denominator)
    table = inst._mixtures.get(weight)
    if table is None:
        table = inst._mixtures[weight] = {}
    menu = table.get((F, G))
    if menu is None:
        mix = _lottery_mixer(table, alpha, inst._held)
        acts = []
        for f in F:
            for g in G:
                act = table.get((f, g))
                if act is None:
                    act = table[f, g] = inst._intern_act(_mix_acts(f, g, mix))
                acts.append(act)
        menu = table[F, G] = inst._intern(Menu(tuple(acts)))
    return menu


def _shrink_counterexample(
    fired: Callable[..., tuple[int, Iterable[tuple]]],
    cmp: Criterion,
    menus: tuple[Menu, ...],
    alpha: Optional[Fraction],
    betas: Optional[tuple[Fraction, ...]],
) -> tuple[Menu, ...]:
    """Greedily drop acts from the witness menus while the axiom's own rule *fired*, run
    over the smaller menus, their relation and ``(alpha, betas)`` as the one weight,
    still yields that tuple violated: each round keeps the first such tuple one act
    smaller, menu by menu, act by act.  So the shrunk menus replay the failure."""
    intern = cmp.instance._intern

    def still_violated(candidate: tuple[Menu, ...]) -> bool:
        witness = (candidate, alpha, betas)
        _, items = fired(cmp, candidate, cmp._relation(candidate), [(alpha, betas)])
        return any(item == witness and not holds for _, item, holds in items)

    while True:
        smaller = (
            menus[:i] + (intern(Menu(tuple(a for a in menu.acts if a != act))),) + menus[i + 1:]
            for i, menu in enumerate(menus)
            if len(menu) > 1
            for act in menu
        )
        violated = next(filter(still_violated, smaller), None)
        if violated is None:
            return menus
        menus = violated


def audit(cmp: Criterion, corpus: Sequence[Menu], config: AuditConfig) -> AuditReport:
    """Check every selected axiom against the criterion over the corpus.

    Each axiom decides at most ``config.max_tuples`` fired tuples; one
    with a fired tuple left over and no failure among those decided is
    reported "truncated".  Gridded axioms report "pass-on-grid" rather
    than "pass".  Nontriviality is scanned to the end whatever the cap:
    its first strictly ranked pair makes it pass, and with none it is
    vacuous.  A trailing entry records that continuity is not audited.  The
    corpus relation is decided once per call and read by every axiom; each
    mixing axiom adds one relation per weight over the corpus mixtures.
    *cmp* must be a `Criterion`, *corpus* of `Menu`s and *config* an `AuditConfig`.
    """
    _members((cmp,), Criterion)
    corpus = _members(corpus, Menu)
    _members((config,), AuditConfig)
    up = cmp._relation(corpus)
    results: list[AxiomResult] = []
    for axiom, spec in _SPECS.items():
        if axiom not in config.axioms:
            continue
        existence = axiom is Axiom.NONTRIVIALITY
        total, candidates = spec.fired(cmp, corpus, up, spec.weights(config))
        cap = None if existence else config.max_tuples
        status, witness, checked, fired = _scan(candidates, total, cap)
        shrunk = alpha = betas = None
        if existence:
            status = STATUS_PASS if status == STATUS_FAIL else STATUS_VACUOUS
        elif status == STATUS_FAIL:
            menus, alpha, betas = witness
            shrunk = _shrink_counterexample(spec.fired, cmp, menus, alpha, betas)
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
