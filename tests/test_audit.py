"""The axiom-audit harness: corpora, verdict matrices, counterexamples."""

import importlib
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from menulearn import (
    ALL_AXIOMS,
    AuditConfig,
    Axiom,
    BadWeightError,
    BmlComparator,
    Collection,
    CredalSet,
    Criterion,
    HmlComparator,
    InfoStructure,
    JmlComparator,
    Menu,
    Posterior,
    REQUIRED_AXIOMS,
    SlComparator,
    ValidationError,
    audit,
    cross_audit,
    dominates,
    generate_corpus,
    mix_menus,
    randomize,
)
from menulearn import Lottery
from menulearn.audit import (
    random_collection,
    random_credal_set,
    random_instance,
    random_lottery,
    random_posterior,
    random_structure,
)

from conftest import menu_of
from reference_audit import reference_audit


# The module, not the `audit` function the package exports under its name.
audit_module = importlib.import_module("menulearn.audit")


def public_distribution(rng, kind, labels):
    """The random draws' distribution built through the public constructor:
    one ``Fraction(w, total)`` per label, as the measure rule's front end reads it."""
    weights = [rng.randint(0, 4) for _ in labels]
    if not any(weights):
        weights[rng.randrange(len(labels))] = 1
    total = sum(weights)
    return kind({label: Fraction(w, total) for label, w in zip(labels, weights) if w})


def public_lottery(rng, inst):
    if rng.random() < 0.4:
        return Lottery({rng.choice(inst.prizes): Fraction(1)})
    return public_distribution(rng, Lottery, inst.prizes)


def public_posterior(rng, inst):
    if rng.random() < 0.3:
        return Posterior({rng.choice(inst.states): Fraction(1)})
    return public_distribution(rng, Posterior, inst.states)


class TestRandomDraws:
    """Draws built on the measure rule's integer core equal the public constructors'."""

    @pytest.mark.parametrize(
        "draw, public", [(random_lottery, public_lottery), (random_posterior, public_posterior)]
    )
    def test_draws_equal_the_public_construction(self, draw, public):
        for seed in range(40):
            inst = random_instance(random.Random(seed), max_states=4, max_prizes=5)
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(30):
                value, expected = draw(rng, inst), public(twin, inst)
                assert value == expected
                assert (repr(value), hash(value)) == (repr(expected), hash(expected))
            assert rng.getstate() == twin.getstate()

    def test_corpus_equals_the_public_construction(self, monkeypatch):
        for seed in range(40):
            config = AuditConfig(corpus_size=8, seed=seed)
            corpus = generate_corpus(random_instance(random.Random(seed)), config)
            with monkeypatch.context() as patched:
                patched.setattr(audit_module, "random_lottery", public_lottery)
                expected = generate_corpus(random_instance(random.Random(seed)), config)
            assert corpus == expected and repr(corpus) == repr(expected)


class TestGenerateCorpus:
    def test_deterministic(self, two_state_instance):
        config = AuditConfig(corpus_size=8, seed=123)
        assert generate_corpus(two_state_instance, config) == generate_corpus(
            two_state_instance, config
        )

    def test_exact_size(self, two_state_instance):
        for size in (1, 3, 6, 10):
            config = AuditConfig(corpus_size=size, seed=1)
            assert len(generate_corpus(two_state_instance, config)) == size

    def test_contains_strict_dominance_pair(self, two_state_instance):
        config = AuditConfig(corpus_size=4, seed=9)
        corpus = generate_corpus(two_state_instance, config)
        assert any(
            dominates(F, G, two_state_instance, strict=True)
            for F in corpus
            for G in corpus
            if F != G
        )

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            AuditConfig(axioms=frozenset())
        with pytest.raises(ValidationError):
            AuditConfig(alpha_grid=(Fraction(0),))
        with pytest.raises(ValidationError):
            AuditConfig(axioms=frozenset({Axiom.CONTINUITY}))
        # A size, cap or seed that is not an int would fail later with a bare
        # TypeError, build a one-menu corpus (True) or draw an unseeded one (None).
        for name, value in (
            ("corpus_size", 2.5),
            ("corpus_size", "5"),
            ("corpus_size", True),
            ("max_tuples", "9"),
            ("max_tuples", 10.0),
            ("seed", None),
            ("seed", False),
            ("seed", 1.5),
        ):
            with pytest.raises(ValidationError, match=f"^{name} must be an int, got "):
                AuditConfig(**{name: value})

    @pytest.mark.parametrize("alpha", [0, 1, 2, Fraction(-1, 2)])
    def test_grid_weight_outside_the_open_interval_is_a_bad_weight(self, alpha):
        with pytest.raises(BadWeightError, match="strictly between 0 and 1"):
            AuditConfig(alpha_grid=(alpha,))

    @pytest.mark.parametrize("grid", [(), [], iter(())], ids=["tuple", "list", "iterator"])
    def test_empty_alpha_grid_is_a_bad_weight(self, grid):
        # Independence and FMM would otherwise read "vacuous" with nothing checked.
        with pytest.raises(BadWeightError, match="^alpha grid needs at least one weight$"):
            AuditConfig(alpha_grid=grid, corpus_size=5)

    @pytest.mark.parametrize("axioms", [{"transitivity"}, {Axiom.TRANSITIVITY, "dominance"}])
    def test_axioms_must_be_axiom_members(self, axioms):
        stray = next(a for a in axioms if isinstance(a, str))
        with pytest.raises(ValidationError, match=f"must be Axiom members, got '{stray}'$"):
            AuditConfig(axioms=axioms)

    def test_grid_weights_are_exact_rationals(self):
        with pytest.raises(TypeError, match="exact rational"):
            AuditConfig(alpha_grid=(0.1,))
        with pytest.raises(ValidationError, match="malformed rational 'abc'"):
            AuditConfig(alpha_grid=("abc",))

    @pytest.mark.parametrize("cap", [0, -3])
    def test_tuple_cap_must_be_positive(self, cap):
        with pytest.raises(ValidationError, match="max_tuples must be at least 1"):
            AuditConfig(max_tuples=cap)
        assert AuditConfig(max_tuples=1).max_tuples == 1


class TestAlphaGrid:
    def test_repeated_weights_are_kept_once_in_first_seen_order(self):
        assert AuditConfig().alpha_grid == (Fraction(1, 2),)
        assert AuditConfig(alpha_grid=("1/2", "0.5")).alpha_grid == (Fraction(1, 2),)
        assert AuditConfig(alpha_grid=("2/3", "1/3", "4/6", Fraction(1, 3))).alpha_grid == (
            Fraction(2, 3),
            Fraction(1, 3),
        )

    def test_repeated_weights_are_audited_once(self, example1):
        inst = example1.instance
        gridded = frozenset(
            {
                Axiom.INDEPENDENCE,
                Axiom.EX_POST_RANDOMIZATION,
                Axiom.FAVORABLE_MIXING_MONOTONICITY,
            }
        )
        single = AuditConfig(axioms=gridded, corpus_size=4, seed=3)
        repeated = AuditConfig(axioms=gridded, corpus_size=4, seed=3, alpha_grid=("1/2", "0.5"))
        corpus = generate_corpus(inst, single)
        for build in (BmlComparator, JmlComparator):
            expected = audit(build(inst, example1.credal_set("both")), corpus, single)
            report = audit(build(inst, example1.credal_set("both")), corpus, repeated)
            assert report == expected
            # C(4, 2) pairs times 4 third menus at one weight.
            assert report.result_for(Axiom.INDEPENDENCE).tuples_checked == 24


class TestAuditVerdicts:
    def test_bml_satisfies_transitivity(self, example1):
        inst = example1.instance
        cmp = BmlComparator(inst, example1.credal_set("both"))
        config = AuditConfig(axioms=frozenset({Axiom.TRANSITIVITY}), corpus_size=6, seed=2)
        corpus = generate_corpus(inst, config) + [example1.menu("f"), example1.menu("gh")]
        report = audit(cmp, corpus, config)
        assert report.result_for(Axiom.TRANSITIVITY).status == "pass"

    def test_jml_transitivity_fails_on_cycle_triple(self, example2):
        inst = example2.instance
        cmp = JmlComparator(inst, example2.credal_set("both"))
        triple = [example2.menu("fstar"), example2.menu("gh"), example2.menu("f")]
        config = AuditConfig(axioms=frozenset({Axiom.TRANSITIVITY}), corpus_size=3)
        report = audit(cmp, triple, config)
        result = report.result_for(Axiom.TRANSITIVITY)
        assert result.status == "fail"
        assert set(result.counterexample) == set(triple)

    def test_bml_completeness_fails_on_incomparable_pair(self, example1):
        inst = example1.instance
        cmp = BmlComparator(inst, example1.credal_set("both"))
        pair = [example1.menu("f"), example1.menu("gh")]
        config = AuditConfig(axioms=frozenset({Axiom.COMPLETENESS}), corpus_size=2)
        report = audit(cmp, pair, config)
        result = report.result_for(Axiom.COMPLETENESS)
        assert result.status == "fail"
        assert set(result.counterexample) == set(pair)

    def test_failures_replay(self, example2):
        # Auditing a failure's shrunk counterexample alone, for its axiom,
        # fails again: the JML cycle of the worked example, then every
        # failure of criteria whose weak preference is negated on some
        # corpus pairs, which breaks every falsifiable axiom.
        inst = example2.instance
        cmp = JmlComparator(inst, example2.credal_set("both"))
        corpus = [example2.menu("fstar"), example2.menu("gh"), example2.menu("f")]
        config = AuditConfig(axioms=frozenset({Axiom.TRANSITIVITY}), corpus_size=3)
        first = audit(cmp, corpus, config).result_for(Axiom.TRANSITIVITY)
        replay = audit(cmp, list(first.counterexample), config)
        assert replay.result_for(Axiom.TRANSITIVITY).status == "fail"
        replayed = set()
        for seed in range(12):
            inst, criteria = seeded_criteria(seed)
            for grid in GRIDS:
                config = AuditConfig(corpus_size=6, seed=seed, alpha_grid=grid)
                corpus = generate_corpus(inst, config)
                flipped = frozenset(
                    (corpus[i], corpus[j])
                    for i, j in itertools.product(range(len(corpus)), repeat=2)
                    if (2 * i + j) % 5 == 1
                )
                for cmp in criteria:
                    broken = FlippedCriterion(inst, cmp.collection, flipped)
                    for result in audit(broken, corpus, config).failures:
                        again = AuditConfig(axioms={result.axiom}, alpha_grid=grid)
                        replay = audit(broken, list(result.counterexample), again)
                        assert replay.result_for(result.axiom).status == "fail", result
                        replayed.add(result.axiom)
        assert replayed == ALL_AXIOMS - {Axiom.NONTRIVIALITY}

    def test_vacuous_when_antecedent_never_fires(self, two_state_instance):
        # Two crossing singletons: no subset pair, so flexibility is vacuous.
        inst = two_state_instance
        uniform = Posterior({"w1": Fraction(1, 2), "w2": Fraction(1, 2)})
        cmp = BmlComparator(inst, CredalSet.singleton(InfoStructure.point_mass(uniform)))
        corpus = [menu_of(inst, (3, 0)), menu_of(inst, (0, 3))]
        config = AuditConfig(
            axioms=frozenset({Axiom.PREFERENCE_FOR_FLEXIBILITY}), corpus_size=2
        )
        report = audit(cmp, corpus, config)
        assert report.result_for(Axiom.PREFERENCE_FOR_FLEXIBILITY).status == "vacuous"

    def test_continuity_reported_not_audited(self, example1):
        inst = example1.instance
        cmp = BmlComparator(inst, example1.credal_set("both"))
        config = AuditConfig(axioms=frozenset({Axiom.REFLEXIVITY}), corpus_size=2)
        report = audit(cmp, generate_corpus(inst, config), config)
        assert report.result_for(Axiom.CONTINUITY).status == "not-audited"

    def test_independence_reports_pass_on_grid(self, example1):
        inst = example1.instance
        cmp = BmlComparator(inst, example1.credal_set("both"))
        config = AuditConfig(axioms=frozenset({Axiom.INDEPENDENCE}), corpus_size=4, seed=3)
        report = audit(cmp, generate_corpus(inst, config), config)
        assert report.result_for(Axiom.INDEPENDENCE).status == "pass-on-grid"

    def test_cap_reports_truncated_not_pass(self, example1):
        inst = example1.instance
        cmp = BmlComparator(inst, example1.credal_set("both"))
        config = AuditConfig(
            axioms=frozenset({Axiom.TRANSITIVITY}), corpus_size=8, seed=2, max_tuples=10
        )
        report = audit(cmp, generate_corpus(inst, config), config)
        result = report.result_for(Axiom.TRANSITIVITY)
        # The cap counts fired triples: ten decided, and the eleventh, the
        # thirteenth triple enumerated, is where the audit stopped.
        assert result.status == "truncated"
        assert (result.antecedents, result.tuples_checked) == (10, 12)
        assert not report.passed and report.truncations == (result,)
        exact = AuditConfig(
            axioms=frozenset({Axiom.TRANSITIVITY}), corpus_size=2, seed=2, max_tuples=8
        )
        full = audit(cmp, generate_corpus(inst, exact), exact)
        assert full.result_for(Axiom.TRANSITIVITY).status == "pass"

    def test_nontriviality_vacuous_without_strict_pair(self, example1):
        inst = example1.instance
        cmp = BmlComparator(inst, example1.credal_set("both"))
        config = AuditConfig(axioms=frozenset({Axiom.NONTRIVIALITY}), corpus_size=1)
        report = audit(cmp, [example1.menu("f")], config)
        assert report.result_for(Axiom.NONTRIVIALITY).status == "vacuous"

    def test_counterexamples_are_shrunk(self, example2):
        # Audit a padded corpus; the reported witness menus should not be
        # larger than the original cycle menus.
        inst = example2.instance
        cmp = JmlComparator(inst, example2.credal_set("both"))
        fat = example2.menu("gh").union(example2.menu("f"))
        corpus = [example2.menu("fstar"), fat, example2.menu("f")]
        config = AuditConfig(axioms=frozenset({Axiom.TRANSITIVITY}), corpus_size=3)
        result = audit(cmp, corpus, config).result_for(Axiom.TRANSITIVITY)
        if result.status == "fail":
            assert all(len(menu) <= len(fat) for menu in result.counterexample)


class TestCrossAudit:
    def test_matrix_passes_on_seeded_instances(self):
        rng = random.Random(31)
        for seed in range(3):
            inst = random_instance(rng)
            report = cross_audit(inst, seed=seed)
            assert report.all_passed, report.to_records()

    def test_default_cap_never_truncates_a_corpus_of_20(self):
        # The cap counts fired candidates: JML's favorable mixing
        # monotonicity enumerates 144,400 tuples here, but fires on far fewer.
        for seed in range(5):
            inst = random_instance(random.Random(seed))
            config = AuditConfig(corpus_size=20, seed=seed)
            records = cross_audit(inst, seed=seed, config=config).to_records()
            assert [r for r in records if r["status"] == "truncated"] == []

    def test_audit_calls_no_pair_method(self, monkeypatch):
        # Every consequent is a bit of a relation the audit has built, so
        # the two-menu methods are never called.
        calls = []
        for name in ("compare", "weakly_prefers"):
            method = getattr(Criterion, name)

            def counted(self, F, G, method=method, name=name):
                calls.append(name)
                return method(self, F, G)

            monkeypatch.setattr(Criterion, name, counted)
        for seed in range(3):
            cross_audit(random_instance(random.Random(seed)), seed=seed)
        assert calls == []

    @pytest.mark.parametrize("seed", range(3))
    def test_audit_decides_each_relation_once(self, monkeypatch, seed):
        # Every axiom reads the one relation the call decides over the
        # corpus; each mixing axiom adds one per weight over the n² corpus
        # mixtures, and dominance and ex-post randomization one per batch of
        # candidates (a single batch each at this size).  The criterion
        # passes, so no shrink decides more.
        inst = random_instance(random.Random(seed))
        cmp = SlComparator(inst, random_structure(random.Random(seed), inst))
        grid = (Fraction(1, 3), Fraction(1, 2))
        config = AuditConfig(corpus_size=6, seed=seed, alpha_grid=grid)
        corpus = generate_corpus(inst, config)
        calls = []
        relation = Criterion._relation

        def counted(self, menus):
            calls.append(list(menus))
            return relation(self, menus)

        monkeypatch.setattr(Criterion, "_relation", counted)
        assert not audit(cmp, corpus, config).failures
        assert calls.count(corpus) == 1
        for alpha in grid:
            assert calls.count([mix_menus(F, H, alpha) for F in corpus for H in corpus]) == 2
        assert len(calls) == 1 + 2 * len(grid) + 2

    def test_required_axiom_sets(self):
        assert Axiom.TRANSITIVITY in REQUIRED_AXIOMS["bml"]
        assert Axiom.TRANSITIVITY not in REQUIRED_AXIOMS["jml"]
        assert Axiom.COMPLETENESS in REQUIRED_AXIOMS["jml"]
        assert Axiom.REFLEXIVITY in REQUIRED_AXIOMS["hml"]

    def test_hml_single_member_passes_unanimity_column(self, example1):
        inst = example1.instance
        coll = Collection.of_credal_set(example1.credal_set("both"))
        cmp = HmlComparator(inst, coll)
        config = AuditConfig(axioms=REQUIRED_AXIOMS["bml"], corpus_size=5, seed=4)
        corpus = generate_corpus(inst, config)
        assert audit(cmp, corpus, config).passed

    def test_hml_all_singletons_passes_veto_column(self, example1):
        inst = example1.instance
        coll = Collection.of_singletons(example1.credal_set("both"))
        cmp = HmlComparator(inst, coll)
        config = AuditConfig(axioms=REQUIRED_AXIOMS["jml"], corpus_size=5, seed=4)
        corpus = generate_corpus(inst, config)
        assert audit(cmp, corpus, config).passed


@dataclass(frozen=True)
class FlippedCriterion(Criterion):
    """A broken criterion: weak preference negated on a fixed set of menu pairs."""

    flipped: frozenset = frozenset()

    def _relation(self, menus):
        # Weak preference has one rule, so flipping its bits here flips every
        # verdict: the audit's relations, which its shrinks read too, and the
        # pair methods the reference calls.
        return [
            up ^ sum(1 << j for j, G in enumerate(menus) if (F, G) in self.flipped)
            for F, up in zip(menus, super()._relation(menus))
        ]


def seeded_criteria(seed):
    """A random instance and its SL, BML, JML and HML criteria, all from *seed*."""
    inst = random_instance(random.Random(seed))
    rng = random.Random(1000 + seed)
    structure = random_structure(rng, inst)
    credal = random_credal_set(rng, inst)
    collection = random_collection(rng, inst)
    return inst, (
        SlComparator(inst, structure),
        BmlComparator(inst, credal),
        JmlComparator(inst, credal),
        HmlComparator(inst, collection),
    )


def assert_matches_reference(cmp, corpus, config):
    """`audit` agrees with the reference, run on a fresh criterion, result by result."""
    report = audit(cmp, corpus, config)
    assert report == reference_audit(replace(cmp), corpus, config)
    return report


GRIDS = ((Fraction(1, 2),), (Fraction(1, 3), Fraction(1, 2)))


class TestReferenceAudit:
    """The spec-table audit against the plain enumerate-and-test reference."""

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_criteria(self, seed):
        inst, criteria = seeded_criteria(seed)
        for grid in GRIDS:
            config = AuditConfig(corpus_size=6, seed=seed, alpha_grid=grid)
            corpus = generate_corpus(inst, config)
            for cmp in criteria:
                assert_matches_reference(cmp, corpus, config)

    def test_capped(self):
        # Reversed, the corpus starts with random menus, so the first strict
        # pair can lie past the cap, which nontriviality must ignore.
        truncated = 0
        for seed in range(3):
            inst, criteria = seeded_criteria(seed)
            for cap in (1, 40):
                config = AuditConfig(corpus_size=6, seed=seed, max_tuples=cap)
                corpus = generate_corpus(inst, config)
                for cmp in criteria:
                    for ordered in (corpus, corpus[::-1]):
                        report = assert_matches_reference(cmp, ordered, config)
                        truncated += len(report.truncations)
        assert truncated > 0

    def test_dominance_at_every_cap(self):
        # Dominance visits only its fired (menu, singleton) pairs, so each
        # cap, which stops the audit at the first fired pair past it, pins
        # their positions in the enumeration.
        config = AuditConfig(axioms=frozenset({Axiom.DOMINANCE}), corpus_size=6)
        fired = 0
        for seed in range(2):
            inst, (_, bml, _, _) = seeded_criteria(seed)
            corpus = generate_corpus(inst, replace(config, seed=seed))
            singletons = len({act for menu in corpus for act in menu})
            for ordered in (corpus, corpus[::-1]):
                for cap in range(1, len(corpus) * singletons + 1):
                    capped = replace(config, seed=seed, max_tuples=cap)
                    report = assert_matches_reference(bml, ordered, capped)
                    fired += report.result_for(Axiom.DOMINANCE).antecedents
        assert fired > 0

    def test_example2_jml_cycle(self, example2):
        cmp = JmlComparator(example2.instance, example2.credal_set("both"))
        fat = example2.menu("gh").union(example2.menu("f"))
        for corpus in (
            [example2.menu("fstar"), example2.menu("gh"), example2.menu("f")],
            [example2.menu("fstar"), fat, example2.menu("f")],
        ):
            for grid in GRIDS:
                config = AuditConfig(corpus_size=len(corpus), alpha_grid=grid)
                report = assert_matches_reference(cmp, corpus, config)
                assert report.result_for(Axiom.TRANSITIVITY).failed

    def test_independence_reads_the_mixtures_at_each_weight(self):
        # Weak preference flipped only from a later menu's mixture to an
        # earlier one's, at the grid's second weight, breaks independence in
        # the backward direction and at that weight alone, which neither a
        # forward-only comparison nor the first weight's relation shows.
        inst, criteria = seeded_criteria(0)
        grid = GRIDS[1]
        config = AuditConfig(
            axioms=frozenset({Axiom.INDEPENDENCE}), corpus_size=6, alpha_grid=grid
        )
        corpus = generate_corpus(inst, config)
        flipped = frozenset(
            (mix_menus(G, corpus[0], grid[1]), mix_menus(F, corpus[0], grid[1]))
            for F, G in itertools.combinations(corpus, 2)
        )
        for cmp in criteria:
            broken = FlippedCriterion(inst, cmp.collection, flipped)
            report = assert_matches_reference(broken, corpus, config)
            assert report.result_for(Axiom.INDEPENDENCE).failed

    @pytest.mark.parametrize("batch", [None, 1, 3])
    def test_dominance_and_randomization_read_both_bits(self, monkeypatch, batch):
        # Weak preference flipped only from each union F ∪ {g} and from each
        # spread of F to F itself breaks both axioms in the backward
        # direction alone, which a consequent read from one bit misses.
        # Small batches split the candidates over several relations.
        if batch is not None:
            monkeypatch.setattr(audit_module, "_BATCH_PAIRS", batch)
        config = AuditConfig(
            axioms=frozenset({Axiom.DOMINANCE, Axiom.EX_POST_RANDOMIZATION}), corpus_size=6
        )
        betas = ((Fraction(1, 2),) * 2, (Fraction(1, 3),) * 3)
        failed = set()
        for seed in range(3):
            inst, criteria = seeded_criteria(seed)
            corpus = generate_corpus(inst, replace(config, seed=seed))
            acts = {act for menu in corpus for act in menu}
            flipped = frozenset(
                (other, F)
                for F in corpus
                for other in [F.union(Menu((g,))) for g in acts] + [randomize(F, b) for b in betas]
                if other != F
            )
            for cmp, cap in itertools.product(criteria, (config.max_tuples, 4)):
                broken = FlippedCriterion(inst, cmp.collection, flipped)
                capped = replace(config, seed=seed, max_tuples=cap)
                report = assert_matches_reference(broken, corpus, capped)
                failed |= {result.axiom for result in report.failures}
        assert failed == {Axiom.DOMINANCE, Axiom.EX_POST_RANDOMIZATION}

    def test_capped_dominance_builds_one_batch(self, monkeypatch):
        # Unions and the relations over them are built a batch at a time as
        # the scan asks, so a scan stopped at a cap of 1 builds one batch.
        # The audit's one relation over the corpus is counted apart.
        monkeypatch.setattr(audit_module, "_BATCH_PAIRS", 2)
        inst, (_, bml, _, _) = seeded_criteria(0)
        config = AuditConfig(axioms=frozenset({Axiom.DOMINANCE}), corpus_size=12)
        corpus = generate_corpus(inst, config)
        uncapped = audit(bml, corpus, config).result_for(Axiom.DOMINANCE)
        assert uncapped.antecedents > 4
        calls = []
        for cls, name in ((Menu, "union"), (Criterion, "_relation")):
            method = getattr(cls, name)

            def counted(self, other, method=method, name=name):
                corpus_relation = name == "_relation" and list(other) == corpus
                calls.append("corpus" if corpus_relation else name)
                return method(self, other)

            monkeypatch.setattr(cls, name, counted)
        capped = audit(bml, corpus, replace(config, max_tuples=1)).result_for(Axiom.DOMINANCE)
        assert capped.status == "truncated"
        assert sorted(calls) == ["_relation", "corpus", "union", "union"]

    def test_mixing_must_keep_the_ranking_strict(self, two_state_instance):
        # G adds to F an act F's act dominates, and H2 does so to H, so each
        # pair is indifferent until the flips rank F over G and H over H2
        # strictly; every mixture of F and H is then indifferent to the same
        # mixture of G and H2, which favorable mixing monotonicity forbids.
        inst = two_state_instance
        F, G = menu_of(inst, (3, 0)), menu_of(inst, (3, 0), (2, 0))
        H, H2 = menu_of(inst, (0, 3)), menu_of(inst, (0, 3), (0, 1))
        uniform = Posterior({"w1": Fraction(1, 2), "w2": Fraction(1, 2)})
        cmp = BmlComparator(inst, CredalSet.singleton(InfoStructure.point_mass(uniform)))
        broken = FlippedCriterion(inst, cmp.collection, frozenset({(G, F), (H2, H)}))
        config = AuditConfig(axioms=frozenset({Axiom.FAVORABLE_MIXING_MONOTONICITY}))
        report = assert_matches_reference(broken, [F, G, H, H2], config)
        assert report.result_for(Axiom.FAVORABLE_MIXING_MONOTONICITY).failed

    def test_flipped_criterion_fails_every_axiom(self):
        # Negating weak preference on corpus pairs breaks every axiom with a
        # falsifiable consequent; each failure, its witness shrink included,
        # must match the reference.
        failed = set()
        for seed in range(4):
            inst, criteria = seeded_criteria(seed)
            for grid in GRIDS:
                config = AuditConfig(corpus_size=6, seed=seed, alpha_grid=grid)
                corpus = generate_corpus(inst, config)
                flipped = frozenset(
                    (corpus[i], corpus[j])
                    for i, j in itertools.product(range(len(corpus)), repeat=2)
                    if (2 * i + j) % 5 == 1
                )
                for cmp in criteria:
                    broken = FlippedCriterion(inst, cmp.collection, flipped)
                    report = assert_matches_reference(broken, corpus, config)
                    failed |= {result.axiom for result in report.failures}
        assert failed == ALL_AXIOMS - {Axiom.NONTRIVIALITY}
