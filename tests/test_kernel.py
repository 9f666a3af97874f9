"""The memoized evaluation kernel against the plain reference definitions.

`menulearn.evaluation` keeps its memos (one integer vector per act and per
posterior, benefits), the audit's mixtures and its held-value table on
the `Instance`, and each `Criterion` keeps its benefit rows; these tests
check that the kernel agrees exactly with `reference_evaluation`, also
where the integer path is stressed by coprime, large and negative
denominators and by ties that only show after cross-multiplying, that
strict and weak dominance stay apart, that the audit's mixtures and
randomizations equal the public mixers' (lottery mixtures also over large
coprime denominators), its mixed lotteries are held once per instance
without building their Fractions, and an audit compares few Fractions at
all, and its menus and their acts are interned without
changing any report, that the corpus relations decided at once as bitsets
(weak preference, dominance) and their two-menu cases agree with the
reference formulas, that vectors follow the instance's state order, that
malformed acts and posteriors and arguments of the wrong type at the
public entry points raise typed errors, and that every table is freed with
its owner and left out of its copies.
"""

import copy
import gc
import pickle
import random
import re
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_criteria as ref_criteria
import reference_evaluation as ref
from menulearn import (
    ALL_AXIOMS,
    Act,
    AlphaPolicy,
    AuditConfig,
    Axiom,
    BadWeightError,
    BmlComparator,
    Collection,
    CredalSet,
    Criterion,
    DimensionMismatchError,
    HmlComparator,
    InfoStructure,
    Instance,
    JmlComparator,
    Lottery,
    Menu,
    Posterior,
    SlComparator,
    ValidationError,
    Verdict,
    act_value,
    audit,
    benefit_gap,
    benefit_of_information,
    combine_structures,
    constant_act,
    constant_menu,
    credal_subset,
    cross_audit,
    dominates,
    generate_corpus,
    mean_posterior,
    mix_acts,
    mix_lotteries,
    mix_menus,
    mix_structures,
    randomize,
    rank_menus,
    scenario_band,
    support_value,
    validate_instance,
)
from menulearn.audit import (
    _SPECS,
    _mixed,
    random_act,
    random_collection,
    random_credal_set,
    random_instance,
    random_structure,
)
from menulearn.core import validate_act
from menulearn.evaluation import _bits, _dominance_relation, _randomize

from conftest import (
    collections,
    credal_sets,
    instances,
    lotteries,
    menu_of,
    menus,
    structures,
    twin_instance,
    twin_menu,
    twin_structure,
    utility_lottery,
)


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        alpha=st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]),
        scale=st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(5)]),
        shift=st.sampled_from([Fraction(0), Fraction(-7, 2), Fraction(3)]),
    )
    def test_kernel_matches_reference(self, data, alpha, scale, shift):
        inst = data.draw(instances())
        F, G, H = (data.draw(menus(inst)) for _ in range(3))
        pis = [data.draw(structures(inst)) for _ in range(2)]
        mixed = mix_menus(F, H, alpha)
        assert mixed == ref.mix_menus(F, H, alpha)
        spread = randomize(G, (alpha, 1 - alpha))
        twins = [twin_menu(F), twin_menu(mixed)]
        assert twins[0] is not F and twins[0] == F and hash(twins[0]) == hash(F)
        pis.append(twin_structure(pis[0]))
        candidates = [F, G, H, mixed, spread, *twins]
        for target in (inst, twin_instance(inst), inst.rescaled(scale, shift)):
            # Twice over, so the second pass reads the instance's memo.
            for _ in range(2):
                for menu in candidates:
                    for pi in pis:
                        assert benefit_of_information(menu, pi, target) == ref.benefit(
                            menu, pi, target
                        )
                        for p in pi.posteriors:
                            assert support_value(menu, p, target) == ref.support_value(
                                menu, p, target
                            )
                            for f in menu:
                                assert act_value(f, p, target) == ref.act_value(f, p, target)
                for A in candidates:
                    for B in candidates:
                        for strict in (False, True):
                            assert dominates(A, B, target, strict=strict) == ref.dominates(
                                A, B, target, strict=strict
                            )


#: Pairwise-coprime denominators, from small primes to a Mersenne prime.
PRIMES = (2, 3, 5, 7, 11, 13, 101, 9973, 2**31 - 1)


@st.composite
def coprime_instances(draw):
    """An instance whose prize utilities are signed fractions over distinct primes."""
    n_states = draw(st.integers(1, 3))
    n_prizes = draw(st.integers(2, 4))
    dens = draw(
        st.lists(st.sampled_from(PRIMES), min_size=n_prizes, max_size=n_prizes, unique=True)
    )
    nums = draw(st.lists(st.integers(-(10**6), 10**6), min_size=n_prizes, max_size=n_prizes))
    utility = {f"z{i}": Fraction(n, d) for i, (n, d) in enumerate(zip(nums, dens))}
    assume(len(set(utility.values())) > 1)
    return Instance(
        states=tuple(draw(st.permutations([f"s{i}" for i in range(n_states)]))),
        prizes=tuple(utility),
        utility=utility,
    )


def _coprime_distribution(draw, labels) -> dict:
    """Weights ``n / q`` over distinct primes ``q``, normalized: denominators mix."""
    dens = draw(st.lists(st.sampled_from(PRIMES), min_size=len(labels), max_size=len(labels)))
    raw = {label: Fraction(draw(st.integers(0, q)), q) for label, q in zip(labels, dens)}
    assume(any(raw.values()))
    total = sum(raw.values())
    return {label: w / total for label, w in raw.items() if w}


@st.composite
def coprime_acts(draw, inst: Instance):
    return Act({state: Lottery(_coprime_distribution(draw, inst.prizes)) for state in inst.states})


@st.composite
def subset_posteriors(draw, inst: Instance):
    """A posterior on a nonempty subset of the states."""
    states = draw(st.lists(st.sampled_from(inst.states), min_size=1, unique=True))
    return Posterior(_coprime_distribution(draw, states))


def tie_twin(f: Act, inst: Instance) -> Act:
    """An act paying, in every state, a best/worst lottery of the same utility as *f*."""
    return Act(
        {state: utility_lottery(inst, ref.lottery_utility(x, inst)) for state, x in f.outcomes}
    )


@st.composite
def tied_corpora(draw, inst: Instance):
    """Corpora with repeated menus and tied benefits: drawn menus, equal twins,
    singletons of their first acts and of tie twins paying the same utilities."""
    drawn = [draw(menus(inst)) for _ in range(draw(st.integers(1, 4)))]
    pool = list(drawn)
    for menu in drawn:
        first = menu.acts[0]
        pool += [twin_menu(menu), Menu((first,)), Menu((tie_twin(first, inst),))]
    return draw(st.lists(st.sampled_from(pool), max_size=9))


def bit(relation, i, j):
    return bool(relation[i] >> j & 1)


class TestCorpusRelations:
    """`Criterion._relation` and `_dominance_relation`, and their two-menu cases,
    against the reference gap and dominance formulas."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_weak_preference_bits(self, data):
        # The pair methods are the relation's two-menu case, so the gap
        # oracle is the independent check for the bits and for all three.
        inst = data.draw(instances())
        corpus = data.draw(tied_corpora(inst))
        credal = data.draw(credal_sets(inst))
        kinds = (
            ("sl", SlComparator, credal.generators[0]),
            ("bml", BmlComparator, credal),
            ("jml", JmlComparator, credal),
            ("hml", HmlComparator, data.draw(collections(inst))),
        )
        for name, kind, param in kinds:
            ref_compare, ref_gap = ref_criteria.CRITERIA[name]
            criterion = kind(inst, param)
            relation = criterion._relation(corpus)
            assert len(relation) == len(corpus)
            for i, F in enumerate(corpus):
                for j, G in enumerate(corpus):
                    weak = ref_gap(F, G, param, inst) >= 0
                    verdict = ref_compare(F, G, inst, param)
                    assert bit(relation, i, j) == weak
                    assert criterion.weakly_prefers(F, G) is weak
                    assert criterion.strictly_prefers(F, G) is (verdict is Verdict.STRICT_BETTER)
                    assert criterion.compare(F, G) is verdict

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dominance_bits(self, data):
        # `dominates` is the relation's two-menu case, so the Fraction
        # oracle is the independent check; the pair path must still agree.
        inst = data.draw(instances())
        corpus = data.draw(tied_corpora(inst))
        for strict in (False, True):
            relation = _dominance_relation(corpus, inst, strict)
            for i, F in enumerate(corpus):
                for j, G in enumerate(corpus):
                    expected = ref.dominates(F, G, inst, strict=strict)
                    assert bit(relation, i, j) == expected
                    assert dominates(F, G, inst, strict=strict) == expected

    def test_unevaluable_menu_raises_as_on_the_pair_path(self, two_state_instance):
        inst = two_state_instance
        lose, win = Lottery.degenerate("lose"), Lottery.degenerate("win")
        good = Menu((Act({"w1": win, "w2": lose}),))
        stray = Menu((Act({"w1": lose, "w2": lose, "w3": win}),))
        partial_act = Menu((Act({"w1": win}),))
        structure = InfoStructure.point_mass(Posterior({"w1": 1}))
        for bad in (stray, partial_act):
            relations = (
                lambda corpus: SlComparator(inst, structure)._relation(corpus),
                lambda corpus: _dominance_relation(corpus, inst, False),
                lambda corpus: _dominance_relation(corpus, inst, True),
            )
            pairs = (
                lambda F, G: SlComparator(inst, structure).weakly_prefers(F, G),
                lambda F, G: dominates(F, G, inst),
                lambda F, G: dominates(F, G, inst, strict=True),
            )
            for relation, pair in zip(relations, pairs):
                with pytest.raises(DimensionMismatchError) as on_pairs:
                    pair(good, bad)
                with pytest.raises(DimensionMismatchError) as at_once:
                    relation([good, bad])
                assert str(at_once.value) == str(on_pairs.value)


class TestIntegerKernel:
    """Integer numerators against the Fraction formulas, where they are easiest to get wrong."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_coprime_denominators_match_reference(self, data):
        inst = data.draw(coprime_instances())
        acts_drawn = [data.draw(coprime_acts(inst)) for _ in range(3)]
        # Each twin ties its act in every state, through other denominators.
        twins = [tie_twin(f, inst) for f in acts_drawn]
        menus_ = [
            Menu(tuple(acts_drawn)),
            Menu((acts_drawn[0], twins[1])),
            Menu((twins[0],)),
            Menu((acts_drawn[0],)),
            Menu((acts_drawn[2], twins[2])),
        ]
        posteriors_ = [data.draw(subset_posteriors(inst)) for _ in range(3)]
        dens = data.draw(st.lists(st.sampled_from(PRIMES), min_size=3, max_size=3))
        raw = [Fraction(1, q) for q in dens]
        pi = InfoStructure(tuple((p, w / sum(raw)) for p, w in zip(posteriors_, raw)))
        for _ in range(2):
            for menu in menus_:
                got = benefit_of_information(menu, pi, inst)
                assert type(got) is Fraction and got == ref.benefit(menu, pi, inst)
                for p in posteriors_:
                    got = support_value(menu, p, inst)
                    assert type(got) is Fraction and got == ref.support_value(menu, p, inst)
                    for f in menu:
                        got = act_value(f, p, inst)
                        assert type(got) is Fraction and got == ref.act_value(f, p, inst)
            for A in menus_:
                for B in menus_:
                    for strict in (False, True):
                        assert dominates(A, B, inst, strict=strict) == ref.dominates(
                            A, B, inst, strict=strict
                        )
        # Each benefit is held as one reduced int pair, the reference's value.
        for (menu, structure), (num, den) in inst._benefits.items():
            assert type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1
            assert Fraction(num, den) == ref.benefit(menu, structure, inst)
        # One integer vector per act and per posterior, in `inst.states` order.
        assert {key for key in inst._numerators if isinstance(key, Posterior)} == set(posteriors_)
        for key, (den, vector) in inst._numerators.items():
            assert type(den) is int and all(type(n) is int for n in vector)
            if isinstance(key, Act):
                expected = [ref.lottery_utility(key.lottery(s), inst) for s in inst.states]
                for _, x in key.outcomes:
                    assert inst.lottery_utility(x) == ref.lottery_utility(x, inst)
            else:
                expected = [key.prob(s) for s in inst.states]
            assert [Fraction(n, den) for n in vector] == expected

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ties_after_cross_multiplying(self, data):
        inst = data.draw(coprime_instances())
        f = data.draw(coprime_acts(inst))
        g = tie_twin(f, inst)
        F, G = Menu((f,)), Menu((g,))
        for A, B in ((F, G), (G, F)):
            assert dominates(A, B, inst) and not dominates(A, B, inst, strict=True)
        for p in (data.draw(subset_posteriors(inst)) for _ in range(2)):
            assert act_value(f, p, inst) == act_value(g, p, inst)
            assert support_value(Menu((f, g)), p, inst) == act_value(f, p, inst)

    def test_equal_utilities_over_different_denominators(self):
        # u(mid) = 1 = u({win: 1/3, lose: 2/3}): the first act's numerators
        # are (1, 1) over 1, the second's (3, 3) over 3.  Read without
        # cross-multiplying, the second would strictly dominate the first.
        inst = Instance(
            states=("w1", "w2"), prizes=("win", "mid", "lose"),
            utility={"win": 3, "mid": 1, "lose": 0},
        )
        sure = Act({"w1": Lottery.degenerate("mid"), "w2": Lottery.degenerate("mid")})
        risky = Lottery({"win": Fraction(1, 3), "lose": Fraction(2, 3)})
        mixed = Act({"w1": risky, "w2": risky})
        better = Act({"w1": risky, "w2": Lottery({"win": Fraction(1, 2), "mid": Fraction(1, 2)})})
        F, G, H = Menu((sure,)), Menu((mixed,)), Menu((better,))
        for A, B in ((F, G), (G, F)):
            assert dominates(A, B, inst) is True
            assert dominates(A, B, inst, strict=True) is False
        assert inst._numerators[sure][1] != inst._numerators[mixed][1]
        assert dominates(H, F, inst) and not dominates(H, F, inst, strict=True)
        assert not dominates(F, H, inst)
        p = Posterior({"w1": Fraction(1, 5), "w2": Fraction(4, 5)})
        assert support_value(Menu((sure, better)), p, inst) == Fraction(1, 5) + Fraction(4, 5) * 2
        assert support_value(Menu((mixed, sure)), p, inst) == 1
        # 3/5 is (3, 3) over 5: the larger numerators belong to the worse act.
        poorer = Lottery({"win": Fraction(1, 5), "lose": Fraction(4, 5)})
        assert support_value(Menu((sure, Act({"w1": poorer, "w2": poorer}))), p, inst) == 1

    def test_small_menus_and_structures_match_reference(self):
        # Every menu of 1-3 acts under every structure of 1-3 posteriors: a
        # benefit that read fewer act vectors than the menu has acts, or
        # fewer posteriors than the structure has, would miss a best act.
        rng = random.Random(29)
        for _ in range(30):
            inst = random_instance(rng)
            menus_ = [Menu(tuple(random_act(rng, inst) for _ in range(k))) for k in (1, 2, 3)]
            structures_ = [random_structure(rng, inst) for _ in range(4)]
            for menu in menus_:
                for pi in structures_:
                    assert benefit_of_information(menu, pi, inst) == ref.benefit(menu, pi, inst)

    def test_vectors_follow_the_instance_state_order(self):
        # States listed against label order: a reader that indexed by sorted
        # label would swap w1 and w2 in every value and verdict below.
        inst = Instance(
            states=("w2", "w1"), prizes=("win", "mid", "lose"),
            utility={"win": 3, "mid": 1, "lose": 0},
        )
        win, mid, lose = (Lottery.degenerate(z) for z in ("win", "mid", "lose"))
        coin = Lottery({"win": Fraction(1, 2), "lose": Fraction(1, 2)})
        f = Act({"w1": win, "w2": lose})
        g = Act({"w1": mid, "w2": coin})
        h = Act({"w1": lose, "w2": mid})
        menus_ = [Menu((f,)), Menu((g,)), Menu((h,)), Menu((f, g)), Menu((g, h))]
        posteriors_ = [
            Posterior({"w1": Fraction(1, 3), "w2": Fraction(2, 3)}),
            Posterior.degenerate("w1"),
            Posterior.degenerate("w2"),
        ]
        pi = InfoStructure(tuple((p, Fraction(1, 3)) for p in posteriors_))
        assert act_value(f, posteriors_[0], inst) == 1
        assert act_value(g, posteriors_[0], inst) == Fraction(4, 3)
        assert support_value(Menu((f, g)), posteriors_[1], inst) == 3
        assert benefit_of_information(Menu((f, g)), pi, inst) == Fraction(1, 3) * (
            Fraction(4, 3) + 3 + Fraction(3, 2)
        )
        for menu in menus_:
            assert benefit_of_information(menu, pi, inst) == ref.benefit(menu, pi, inst)
            for p in posteriors_:
                assert support_value(menu, p, inst) == ref.support_value(menu, p, inst)
                for act in menu:
                    assert act_value(act, p, inst) == ref.act_value(act, p, inst)
        assert inst._numerators[f] == (1, (0, 3))
        assert inst._numerators[g] == (2, (3, 2))
        assert inst._numerators[posteriors_[0]] == (3, (2, 1))
        assert dominates(Menu((g,)), Menu((h,)), inst, strict=True)
        assert not dominates(Menu((f,)), Menu((h,)), inst)
        for A in menus_:
            for B in menus_:
                for strict in (False, True):
                    assert dominates(A, B, inst, strict=strict) == ref.dominates(
                        A, B, inst, strict=strict
                    )


#: Distinct primes up to 2^31 - 1.
PRIMES = (2, 3, 7, 65_521, 65_537, 999_983, 1_000_003, 2_147_483_629, 2_147_483_647)


def supports(labels):
    return st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True)


@st.composite
def prime_lotteries(draw, labels, primes):
    """A lottery on *labels*: each but the last gets ``n / q`` for its own prime
    ``q``, at most ``1 / len(labels)``, and the last the remaining mass."""
    probs = {
        label: Fraction(draw(st.integers(0, q // len(labels))), q)
        for label, q in zip(labels[:-1], primes)
    }
    probs[labels[-1]] = 1 - sum(probs.values())
    return Lottery(probs)


class TestMixturesAgainstReference:
    """Lottery mixtures are built on integer numerators and the structure mixtures
    list weighted pairs; the reference accumulates Fractions in a dict."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), alpha=st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1]))
    def test_mixtures_match_reference(self, data, alpha):
        inst = data.draw(instances())
        x, y = data.draw(lotteries(inst)), data.draw(lotteries(inst))
        mixed, expected = mix_lotteries(x, y, alpha), ref.mix_lotteries(x, y, alpha)
        assert mixed == expected and repr(mixed) == repr(expected)
        parts = [data.draw(structures(inst)) for _ in range(data.draw(st.integers(1, 3)))]
        raw = data.draw(st.lists(st.integers(0, 3), min_size=len(parts), max_size=len(parts)))
        if not any(raw):
            raw[0] = 1
        weights = [Fraction(w, sum(raw)) for w in raw]
        combined = combine_structures(parts, weights)
        expected = ref.combine_structures(parts, weights)
        assert combined == expected and repr(combined) == repr(expected)
        for pi in (*parts, combined):
            prior, expected = mean_posterior(pi), ref.mean_posterior(pi)
            assert prior == expected and repr(prior) == repr(expected)

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        alpha=st.one_of(
            st.sampled_from([0, 1]),
            st.integers(2**31, 2**64).flatmap(
                lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))
            ),
        ),
    )
    def test_mixing_over_large_coprime_denominators(self, data, alpha):
        # Each probability but a support's last has its own prime denominator
        # (up to 2^31 - 1, none shared between the two lotteries), so the
        # integer mixer's common denominator is a product of large primes.
        primes = data.draw(st.permutations(PRIMES))
        disjoint = data.draw(st.booleans())
        x_labels = data.draw(supports("abcdef"))
        y_labels = data.draw(supports([z for z in "abcdefgh" if not disjoint or z not in x_labels]))
        x = data.draw(prime_lotteries(x_labels, primes[:3]))
        y = data.draw(prime_lotteries(y_labels, primes[3:6]))
        mixed, expected = mix_lotteries(x, y, alpha), ref.mix_lotteries(x, y, alpha)
        assert all(type(p) is Fraction for _, p in mixed.probs)
        assert mixed == expected
        assert (repr(mixed), hash(mixed)) == (repr(expected), hash(expected))


class TestDerivedMemos:
    """Weak against strict dominance, and the audit's mixtures memoized on the instance."""

    def test_weak_and_strict_dominance_are_separate_entries(self, two_state_instance):
        # Weak dominance holds (3 >= 3 in w1) and strict dominance does not,
        # so a rule that ignored the flag would answer the second question
        # with the first one's verdict, in either call order.
        upper = menu_of(two_state_instance, (3, 1))
        lower = menu_of(two_state_instance, (3, 0))
        for order in ((False, True), (True, False)):
            inst = twin_instance(two_state_instance)
            F, G = twin_menu(upper), twin_menu(lower)
            for _ in range(2):
                for strict in order:
                    assert dominates(F, G, inst, strict=strict) is (not strict)
                    assert ref.dominates(F, G, inst, strict=strict) is (not strict)
                    assert dominates(G, F, inst, strict=strict) is False

    def test_mixed_acts_and_menus_equal_the_public_mixers(self):
        for seed in range(6):
            inst = random_instance(random.Random(seed))
            corpus = generate_corpus(inst, AuditConfig(corpus_size=5, seed=seed))
            for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
                for F in corpus:
                    for G in corpus:
                        mixed = _mixed(inst, F, G, alpha)
                        assert mixed == mix_menus(F, G, alpha) == ref.mix_menus(F, G, alpha)
                        table = inst._mixtures[alpha.numerator, alpha.denominator]
                        for f in F:
                            for g in G:
                                act = table[f, g]
                                assert act == mix_acts(f, g, alpha) == ref.mix_acts(f, g, alpha)
                                assert act in mixed
                                for (_, x), (_, y) in zip(f.outcomes, g.outcomes):
                                    assert table[x, y] == mix_lotteries(x, y, alpha)

    def test_mixed_lotteries_are_held_once_without_fractions(self):
        # A mixed act equal to a corpus act is interned as that act, which
        # keeps the corpus's lotteries; `_mixed` builds every other one.
        # Each is held in its integer form alone: the audit never reads
        # its `probs`, so their Fractions are never built.
        for seed in range(6):
            inst = random_instance(random.Random(seed))
            assert cross_audit(inst, seed=seed).all_passed
            corpus = generate_corpus(inst, AuditConfig(corpus_size=5, seed=seed))
            corpus_acts = {id(act) for menu in corpus for act in menu}
            values = [value for table in inst._mixtures.values() for value in table.values()]
            built = [v for v in values if isinstance(v, Act) and id(v) not in corpus_acts]
            mixed = [v for v in values if isinstance(v, Lottery)]
            assert built and mixed
            lotteries = [x for act in built for _, x in act.outcomes] + mixed
            assert all(inst._held[x] is x for x in lotteries)
            assert not any("probs" in vars(x) for x in lotteries)

    def test_audits_compare_few_fractions(self, monkeypatch):
        # A count, not a timing, so it is deterministic: lotteries and
        # posteriors compare, hash, sort and mix on their integer forms, so
        # three cross audits compare Fractions about a hundred times, where
        # reading their probabilities as Fractions took about 1,500.
        original = Fraction.__eq__
        calls = 0

        def counted(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        monkeypatch.setattr(Fraction, "__eq__", counted)
        for seed in range(3):
            cross_audit(random_instance(random.Random(seed)), seed=seed)
        assert 0 < calls < 300

    def test_mixing_acts_over_different_states_raises_as_the_public_mixer(
        self, two_state_instance
    ):
        inst = two_state_instance
        win = Lottery.degenerate("win")
        both = Menu((Act({"w1": win, "w2": win}),))
        for other in ({"w1": win}, {"w1": win, "w3": win}):
            G = Menu((Act(other),))
            for F, H in ((both, G), (G, both)):
                for mix in (partial(_mixed, inst), mix_menus):
                    with pytest.raises(
                        ValidationError,
                        match="^cannot mix acts defined over different state spaces$",
                    ):
                        mix(F, H, Fraction(1, 3))
                with pytest.raises(ValidationError, match="different state spaces"):
                    mix_acts(F.acts[0], H.acts[0], Fraction(1, 3))

    def test_audit_randomization_equals_randomize(self):
        config = AuditConfig(
            axioms=frozenset({Axiom.EX_POST_RANDOMIZATION}),
            corpus_size=6,
            alpha_grid=(Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)),
        )
        for seed in range(6):
            inst = random_instance(random.Random(seed))
            corpus = generate_corpus(inst, replace(config, seed=seed))
            spec = _SPECS[Axiom.EX_POST_RANDOMIZATION]
            cmp = BmlComparator(inst, random_credal_set(random.Random(seed), inst))
            up = cmp._relation(corpus)
            total, fired = spec.fired(cmp, corpus, up, spec.weights(config))
            tuples = [item_of(b) for _, fires, _, item_of in fired for b in _bits(fires)]
            assert total == len(tuples) == 4 * len(corpus)
            assert {betas for _, _, betas in tuples} == {
                (Fraction(1, 3), Fraction(2, 3)),
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(4, 5), Fraction(1, 5)),
                (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            }
            for (F,), _, betas in tuples:
                spread = _randomize(F, betas, partial(_mixed, inst))
                assert spread == randomize(F, betas)
                assert inst._intern(spread) is spread
            # The two-weight fold's only step is the mixture the mixing
            # axioms build.
            for F in corpus:
                half = (Fraction(1, 2), Fraction(1, 2))
                assert _randomize(F, half, partial(_mixed, inst)) is _mixed(
                    inst, F, F, Fraction(1, 2)
                )

    def test_audit_randomization_checks_its_weights(self, two_state_instance):
        inst = two_state_instance
        F = menu_of(inst, (3, 0), (0, 3))
        mixer = partial(_mixed, inst)
        for betas in ((), (Fraction(3, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 3))):
            with pytest.raises(BadWeightError):
                _randomize(F, betas, mixer)
            with pytest.raises(BadWeightError):
                randomize(F, betas)


class TestInterning:
    """The audit's menus reach the memos as one object per value."""

    def test_corpus_menus_are_the_same_objects(self):
        inst = random_instance(random.Random(3))
        config = AuditConfig(corpus_size=6, seed=3)
        first, second = generate_corpus(inst, config), generate_corpus(inst, config)
        assert first == second
        assert all(a is b for a, b in zip(first, second))
        # A fresh but equal instance has its own table.
        other = generate_corpus(twin_instance(inst), config)
        assert other == first and not any(a is b for a, b in zip(other, first))

    def test_mixtures_and_dominance_singletons_are_interned(self):
        for seed in range(6):
            inst = random_instance(random.Random(seed))
            config = AuditConfig(corpus_size=6, seed=seed)
            corpus = generate_corpus(inst, config)
            alpha = Fraction(1, 2)
            for F in corpus:
                for G in corpus:
                    mixed = _mixed(inst, F, G, alpha)
                    assert inst._intern(mix_menus(F, G, alpha)) is mixed
                    assert _mixed(inst, twin_menu(F), twin_menu(G), alpha) is mixed
                if len(F) == 1:
                    # A one-act menu mixed with itself is itself.
                    assert _mixed(inst, F, F, alpha) is F
            cmp = BmlComparator(inst, random_credal_set(random.Random(seed), inst))
            up = cmp._relation(corpus)
            _, fired = _SPECS[Axiom.DOMINANCE].fired(cmp, corpus, up, [(None, None)])
            singletons = {item_of(b)[0][1] for _, fires, _, item_of in fired for b in _bits(fires)}
            for singleton in singletons:
                assert len(singleton) == 1
                assert inst._intern(Menu(singleton.acts)) is singleton
            for F in corpus:
                if len(F) == 1:
                    assert any(singleton is F for singleton in singletons)

    def test_acts_of_interned_menus_are_the_held_acts(self):
        # The corpus repeats act values across menus (the best prize's
        # constant act is built twice), and mixing repeats them again.
        for seed in range(6):
            inst = random_instance(random.Random(seed))
            assert cross_audit(inst, seed=seed).all_passed
            held_menus = [value for value in inst._held.values() if isinstance(value, Menu)]
            assert held_menus and inst._mixtures
            for menu in held_menus:
                assert inst._held[menu] is menu
                assert all(inst._held[act] is act for act in menu)
            for table in inst._mixtures.values():
                mixed_acts = [value for value in table.values() if isinstance(value, Act)]
                assert mixed_acts and all(inst._held[act] is act for act in mixed_acts)
            # A twin of an interned menu comes back as the held menu.
            for menu in held_menus:
                assert inst._intern(twin_menu(menu)) is menu

    def test_shrunk_witness_menus_are_interned(self, example2):
        # Shrinking the padded middle menu builds a new two-act menu; it
        # must reach the memos as the instance's one object for its value,
        # here the twin of that menu interned before the audit.  The shrink
        # drops acts in menu order, first `gh`'s act paying "lose" in w1,
        # which sorts first (its lottery there has denominator 1, the least,
        # and prize "lose"), so `gh`'s other act and `f`'s act remain.
        inst = twin_instance(example2.instance)
        cmp = JmlComparator(inst, example2.credal_set("both"))
        gh = example2.menu("gh")
        win_first = next(act for act in gh if act.lottery("w1") == Lottery.degenerate("win"))
        witness = Menu((win_first, example2.menu("f").acts[0]))
        early = inst._intern(twin_menu(witness))
        fat = gh.union(example2.menu("f"))
        corpus = [example2.menu("fstar"), fat, example2.menu("f")]
        config = AuditConfig(axioms=frozenset({Axiom.TRANSITIVITY}), corpus_size=3)
        result = audit(cmp, corpus, config).result_for(Axiom.TRANSITIVITY)
        assert (result.status, result.tuples_checked, result.antecedents) == ("fail", 22, 17)
        assert [len(menu) for menu in result.counterexample] == [1, 2, 1]
        assert result.counterexample[1] == witness and result.counterexample[1] is early
        # The menus the shrink leaves whole are the caller's corpus objects.
        assert result.counterexample[0] is corpus[2] and result.counterexample[2] is corpus[0]
        replay = audit(cmp, list(result.counterexample), config)
        assert replay.result_for(Axiom.TRANSITIVITY).status == "fail"

    def test_twin_corpus_gives_identical_reports(self):
        # Report equality covers every result's status, tuple and antecedent
        # counts and witness (menus, alpha, betas).
        witnesses = 0
        for seed in (9, 10, 11):  # seeds whose audits fail somewhere
            rng = random.Random(seed)
            inst = random_instance(rng)
            credal = random_credal_set(rng, inst)
            collection = random_collection(rng, inst)
            config = AuditConfig(axioms=ALL_AXIOMS, corpus_size=8, seed=seed)
            corpus = generate_corpus(inst, config)
            twins = [twin_menu(menu) for menu in corpus]
            assert all(t == m and t is not m for t, m in zip(twins, corpus))
            for build, param in (
                (BmlComparator, credal),
                (JmlComparator, credal),
                (HmlComparator, collection),
            ):
                expected = audit(build(inst, param), corpus, config)
                witnesses += len(expected.failures)
                for target in (inst, twin_instance(inst)):
                    report = audit(build(target, param), twins, config)
                    assert report == expected
                    assert report.to_records() == expected.to_records()
        assert witnesses > 0


#: Entry points given a value of the wrong type, each with the start of the
#: message that names the expected type; *k* holds well-typed arguments.
WRONG_TYPES = {
    "combine_structures": (
        lambda k: combine_structures([k.pi, "b"], [k.half, k.half]),
        "an InfoStructure, got 'b'",
    ),
    "mix_structures": (lambda k: mix_structures(k.pi, "b", k.half), "an InfoStructure, got 'b'"),
    "mean_posterior": (lambda k: mean_posterior("x"), "an InfoStructure, got 'x'"),
    "benefit of a str structure": (
        lambda k: benefit_of_information(k.F, "pi", k.inst),
        "an InfoStructure, got 'pi'",
    ),
    "benefit of an unhashable menu": (
        lambda k: benefit_of_information([k.f], k.pi, k.inst),
        "a Menu, got [Act(",
    ),
    "act_value": (lambda k: act_value(k.f, "p", k.inst), "a Posterior, got 'p'"),
    "support_value": (lambda k: support_value(k.F, "p", k.inst), "a Posterior, got 'p'"),
    "act_value instance": (
        lambda k: act_value(k.f, Posterior.degenerate("w1"), "inst"),
        "an Instance, got 'inst'",
    ),
    "support_value instance": (
        lambda k: support_value(k.F, Posterior.degenerate("w1"), "inst"),
        "an Instance, got 'inst'",
    ),
    "credal_subset first": (
        lambda k: credal_subset("a", CredalSet.singleton(k.pi)),
        "a CredalSet, got 'a'",
    ),
    "credal_subset second": (
        lambda k: credal_subset(CredalSet.singleton(k.pi), "b"),
        "a CredalSet, got 'b'",
    ),
    "validate_instance": (lambda k: validate_instance("x"), "an Instance, got 'x'"),
    # A menu is checked where the criterion first builds its row.
    "Criterion.compare menu": (
        lambda k: BmlComparator(k.inst, CredalSet.singleton(k.pi)).compare(k.F, "G"),
        "a Menu, got 'G'",
    ),
    "Criterion.weakly_prefers menu": (
        lambda k: BmlComparator(k.inst, CredalSet.singleton(k.pi)).weakly_prefers(k.F, "G"),
        "a Menu, got 'G'",
    ),
    "benefit_gap": (lambda k: benefit_gap(k.F, "G", k.pi, k.inst), "a Menu, got 'G'"),
    "Menu.union": (lambda k: k.F.union(3), "an Act, got 3"),
    "Criterion collection": (lambda k: Criterion(k.inst, "coll"), "a Collection, got 'coll'"),
    "Criterion instance": (
        lambda k: Criterion("inst", Collection.of_credal_set(CredalSet.singleton(k.pi))),
        "an Instance, got 'inst'",
    ),
    "benefit instance": (
        lambda k: benefit_of_information(k.F, k.pi, "inst"),
        "an Instance, got 'inst'",
    ),
    "dominates instance": (lambda k: dominates(k.F, k.F, "inst"), "an Instance, got 'inst'"),
    "scenario_band instance": (
        lambda k: scenario_band(k.F, Collection.of_credal_set(CredalSet.singleton(k.pi)), "inst"),
        "an Instance, got 'inst'",
    ),
    "generate_corpus instance": (
        lambda k: generate_corpus("inst", AuditConfig(corpus_size=2)),
        "an Instance, got 'inst'",
    ),
    "audit criterion": (
        lambda k: audit("cmp", [k.F], AuditConfig(corpus_size=2)),
        "a Criterion, got 'cmp'",
    ),
    "audit config": (
        lambda k: audit(BmlComparator(k.inst, CredalSet.singleton(k.pi)), [k.F], "cfg"),
        "an AuditConfig, got 'cfg'",
    ),
    # Not named by the first character of the string, as an InfoStructure.
    "rank_menus collection": (
        lambda k: rank_menus([k.F], "coll", AlphaPolicy.cautious(), k.inst),
        "a Collection, got 'coll'",
    ),
}


class TestTypedErrors:
    @pytest.mark.parametrize("case", WRONG_TYPES)
    def test_wrong_type_is_named_at_entry(self, case, two_state_instance):
        x = Lottery.degenerate("win")
        f = Act({"w1": x, "w2": x})
        pi = InfoStructure.point_mass(Posterior.degenerate("w1"))
        kit = SimpleNamespace(
            inst=two_state_instance, f=f, F=Menu((f,)), pi=pi, half=Fraction(1, 2)
        )
        call, expected = WRONG_TYPES[case]
        with pytest.raises(TypeError, match="^expected " + re.escape(expected)):
            call(kit)

    def test_public_entry_points_name_the_expected_type(self, two_state_instance):
        inst = two_state_instance
        x = Lottery.degenerate("win")
        f = Act({"w1": x, "w2": x})
        F, half = Menu((f,)), Fraction(1, 2)
        for call, expected in (
            (lambda: mix_lotteries(x, "y", half), "a Lottery, got 'y'"),
            (lambda: mix_acts(f, 3, half), "an Act, got 3"),
            (lambda: mix_menus(F, [f], half), "a Menu, got [Act("),
            (lambda: randomize([f], [1]), "a Menu, got [Act("),
            (lambda: constant_act(inst, "x"), "a Lottery, got 'x'"),
            (lambda: constant_menu(inst, "x"), "a Lottery, got 'x'"),
            (lambda: dominates(F, f, inst), "a Menu, got Act("),
            (lambda: F.issubset([f]), "a Menu, got [Act("),
        ):
            with pytest.raises(TypeError, match="^expected " + re.escape(expected)):
                call()

    def test_posterior_on_a_state_the_act_lacks(self, two_state_instance):
        partial = Act({"w1": Lottery.degenerate("win")})
        pi = InfoStructure.point_mass(Posterior({"w1": Fraction(1, 2), "w2": Fraction(1, 2)}))
        with pytest.raises(DimensionMismatchError):
            benefit_of_information(Menu((partial,)), pi, two_state_instance)
        with pytest.raises(DimensionMismatchError):
            act_value(partial, Posterior.degenerate("w2"), two_state_instance)

    def test_posterior_on_a_state_outside_the_instance(self, two_state_instance):
        # Both name w3; the posterior is read first, so its check reports it.
        inst = two_state_instance
        lose, win = Lottery.degenerate("lose"), Lottery.degenerate("win")
        f = Act({"w1": lose, "w2": lose, "w3": win})
        p = Posterior({"w3": 1})
        with pytest.raises(DimensionMismatchError, match=r"unknown states \['w3'\]"):
            act_value(f, p, inst)
        with pytest.raises(DimensionMismatchError, match=r"unknown states \['w3'\]"):
            support_value(Menu((f,)), p, inst)
        with pytest.raises(DimensionMismatchError, match=r"unknown states \['w3'\]"):
            benefit_of_information(Menu((f,)), InfoStructure.point_mass(p), inst)

    def test_bad_posterior_is_reported_before_a_bad_act(self, two_state_instance):
        # The act lacks w2 and a posterior names w3: every posterior of the
        # structure is read before any act, wherever the bad one stands.
        inst = two_state_instance
        menu = Menu((Act({"w1": Lottery.degenerate("win")}),))
        good, bad = Posterior.degenerate("w1"), Posterior({"w3": 1})
        half = Fraction(1, 2)
        for pi in (InfoStructure.point_mass(bad), InfoStructure(((good, half), (bad, half)))):
            with pytest.raises(DimensionMismatchError) as info:
                benefit_of_information(menu, pi, inst)
            assert str(info.value) == "posterior over unknown states ['w3']"
            assert (menu, pi) not in inst._benefits

    def test_act_on_a_state_outside_the_instance(self, two_state_instance):
        # The posterior lies on the instance's states, so only the act's
        # extra state w3 is wrong; it must not be ignored.
        inst = two_state_instance
        lose, win = Lottery.degenerate("lose"), Lottery.degenerate("win")
        f = Act({"w1": lose, "w2": lose, "w3": win})
        menu, p = Menu((f,)), Posterior.degenerate("w1")
        for evaluate in (
            lambda: act_value(f, p, inst),
            lambda: support_value(menu, p, inst),
            lambda: benefit_of_information(menu, InfoStructure.point_mass(p), inst),
            lambda: dominates(menu, menu, inst),
        ):
            with pytest.raises(DimensionMismatchError, match=r"^unknown states \['w3'\]$"):
                evaluate()

    @pytest.mark.parametrize(
        "states,message",
        [(("w1",), r"missing states \['w2'\]|no outcome for state 'w2'"),
         (("w1", "w2", "w3"), r"unknown states \['w3'\]")],
        ids=["missing_state", "unknown_state"],
    )
    def test_one_act_gets_one_error_type_at_every_entry_point(
        self, two_state_instance, states, message
    ):
        inst = two_state_instance
        act = Act({state: Lottery.degenerate("win") for state in states})
        menu, p = Menu((act,)), Posterior({"w1": Fraction(1, 2), "w2": Fraction(1, 2)})
        credal = CredalSet((InfoStructure.point_mass(p),))
        for check in (
            lambda: validate_act(act, inst),
            lambda: act_value(act, p, inst),
            lambda: support_value(menu, p, inst),
            lambda: benefit_of_information(menu, InfoStructure.point_mass(p), inst),
            lambda: dominates(menu, menu, inst),
            lambda: BmlComparator(inst, credal).compare(menu, menu),
        ):
            with pytest.raises(DimensionMismatchError, match=message) as info:
                check()
            # Every `except ValidationError` still catches it.
            assert isinstance(info.value, ValidationError)

    def test_partial_act_under_a_posterior_on_its_states(self, two_state_instance):
        inst = two_state_instance
        partial = Act({"w1": Lottery.degenerate("win")})
        p = Posterior.degenerate("w1")
        with pytest.raises(DimensionMismatchError, match="no outcome for state 'w2'"):
            act_value(partial, p, inst)
        with pytest.raises(DimensionMismatchError, match="no outcome for state 'w2'"):
            support_value(Menu((partial,)), p, inst)
        with pytest.raises(DimensionMismatchError, match="no outcome for state 'w2'"):
            benefit_of_information(Menu((partial,)), InfoStructure.point_mass(p), inst)

    def test_dominance_needs_total_acts(self, two_state_instance):
        inst = two_state_instance
        total = Menu((Act({"w1": Lottery.degenerate("win"), "w2": Lottery.degenerate("win")}),))
        partial = Menu((Act({"w2": Lottery.degenerate("lose")}),))
        with pytest.raises(DimensionMismatchError):
            dominates(total, partial, inst)
        with pytest.raises(DimensionMismatchError):
            dominates(partial, total, inst, strict=True)

    def test_criterion_evaluates_every_generator(self, two_state_instance):
        # The first singleton member already decides both directions, but
        # the menu's row also needs the second generator, which names the
        # state the act lacks.
        inst = two_state_instance
        partial = Menu((Act({"w1": Lottery.degenerate("win")}),))
        total = Menu((Act({"w1": Lottery.degenerate("win"), "w2": Lottery.degenerate("lose")}),))
        credal = CredalSet(
            (
                InfoStructure.point_mass(Posterior.degenerate("w1")),
                InfoStructure.point_mass(Posterior.degenerate("w2")),
            )
        )
        for criterion in (
            JmlComparator(inst, credal),
            HmlComparator(inst, Collection.of_singletons(credal)),
            BmlComparator(inst, credal),
        ):
            for F, G in ((partial, total), (total, partial)):
                with pytest.raises(DimensionMismatchError):
                    criterion.compare(F, G)
                with pytest.raises(DimensionMismatchError):
                    criterion.weakly_prefers(F, G)

    def test_prize_outside_the_instance(self, two_state_instance):
        inst = two_state_instance
        stray = Lottery.degenerate("zzz")
        menu = Menu((Act({"w1": stray, "w2": stray}),))
        pi = InfoStructure.point_mass(Posterior.degenerate("w1"))
        with pytest.raises(ValidationError, match="zzz"):
            inst.lottery_utility(stray)
        with pytest.raises(ValidationError, match="zzz"):
            benefit_of_information(menu, pi, inst)
        with pytest.raises(ValidationError, match="zzz"):
            dominates(menu, menu, inst)


class TestMemoLifetime:
    def test_instance_is_freed_after_an_audit(self):
        inst = random_instance(random.Random(5))
        report = cross_audit(inst, seed=5)
        assert report.all_passed
        alive = weakref.ref(inst)
        del inst
        gc.collect()
        assert alive() is None

    def test_held_criterion_and_instance_are_freed_after_an_audit(self):
        rng = random.Random(8)
        inst = random_instance(rng)
        criterion = BmlComparator(inst, random_credal_set(rng, inst))
        config = AuditConfig(corpus_size=5, seed=8)
        corpus = generate_corpus(inst, config)
        audit(criterion, corpus, config)
        assert criterion._rows
        assert inst._benefits and inst._mixtures and inst._held
        # A mixed act, its lotteries and their probabilities are held by the
        # instance's tables alone once the corpus is gone, so they outlive
        # them only if they leak; a posterior is held by the criterion's
        # structures and the integer table.
        mixed = next(
            key
            for key in inst._numerators
            if isinstance(key, Act) and not any(key in menu for menu in corpus)
        )
        lottery = next(value for value in inst._held.values() if isinstance(value, Lottery))
        posterior = next(key for key in inst._numerators if isinstance(key, Posterior))
        alive = [weakref.ref(obj) for obj in (criterion, inst, mixed, lottery, posterior)]
        del criterion, corpus, inst, mixed, lottery, posterior
        gc.collect()
        assert [weak() for weak in alive] == [None] * 5

    def test_integer_table_is_left_out_of_pickles(self):
        rng = random.Random(9)
        inst = random_instance(rng)
        fresh = twin_instance(inst)
        corpus = generate_corpus(inst, AuditConfig(corpus_size=5, seed=9))
        pi = random_credal_set(rng, inst).generators[0]
        for F in corpus:
            benefit_of_information(F, pi, inst)
            dominates(F, corpus[0], inst)
        assert inst._benefits
        assert {type(key) for key in inst._numerators} == {Act, Posterior}
        assert len(pickle.dumps(inst)) == len(pickle.dumps(fresh))
        copied = pickle.loads(pickle.dumps(inst))
        assert copied == inst and copied._numerators == {} and copied._benefits == {}
        assert copied._prize_table == inst._prize_table

    def test_mixture_tables_are_left_out_of_copies(self):
        inst = random_instance(random.Random(4))
        fresh = twin_instance(inst)
        assert cross_audit(inst, seed=4).all_passed
        assert inst._mixtures and inst._held
        assert len(pickle.dumps(inst)) == len(pickle.dumps(fresh))
        for copied in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert copied == inst and copied is not inst
            assert copied._mixtures == {} and copied._held == {}
