"""Acceptance suite: exact reproduction of the worked examples plus the
property sweeps, one printed pass/fail line per criterion.

Every assertion is exact (rational arithmetic, tolerance zero).  Seeds are
fixed so each run checks the same configurations.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

import pytest

from menulearn import (
    AlphaPolicy,
    AuditConfig,
    Axiom,
    BmlComparator,
    Collection,
    CredalSet,
    HmlComparator,
    InfoStructure,
    JmlComparator,
    SlComparator,
    Verdict,
    audit,
    benefit_of_information,
    check_less_inconsistent,
    check_less_negative_inconsistent,
    check_more_decisive,
    check_more_strict_decisive,
    combine_structures,
    constant_menu,
    credal_subset,
    cross_audit,
    generate_corpus,
    mix_menus,
    mix_structures,
    rank_menus,
    rationalized_value,
    robust_strict,
    scenario_band,
    support_value,
    utility_grid_lotteries,
)
from menulearn.audit import (
    random_collection,
    random_credal_set,
    random_instance,
    random_menu,
    random_posterior,
    random_structure,
)

from conftest import utility_lottery
from test_comparative import brute_force_membership, outside_bounding_box


@pytest.fixture()
def criterion(capsys):
    @contextmanager
    def _criterion(number: int, label: str):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {number} ({label}): FAIL")
            raise
        else:
            elapsed = time.perf_counter() - start
            with capsys.disabled():
                print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.2f}s]")

    return _criterion


def test_criterion_1_example1_reproduction(example1, criterion):
    with criterion(1, "example 1 reproduction, exact"):
        start = time.perf_counter()
        inst = example1.instance
        f, gh = example1.menu("f"), example1.menu("gh")
        delta_p, pi = example1.info_structure("delta_p"), example1.info_structure("pi")
        assert benefit_of_information(f, delta_p, inst) == 2
        assert benefit_of_information(f, pi, inst) == 2
        assert benefit_of_information(gh, delta_p, inst) == Fraction(3, 2)
        assert benefit_of_information(gh, pi, inst) == 3
        bml = BmlComparator(inst, example1.credal_set("both"))
        assert bml.compare(f, gh) is Verdict.INCOMPARABLE
        assert time.perf_counter() - start < 1.0


def test_criterion_2_example2_reproduction(example2, criterion):
    with criterion(2, "example 2 reproduction, exact"):
        start = time.perf_counter()
        inst = example2.instance
        f, gh, fstar = example2.menu("f"), example2.menu("gh"), example2.menu("fstar")
        both = example2.credal_set("both")
        for name in ("delta_p", "pi"):
            assert benefit_of_information(
                fstar, example2.info_structure(name), inst
            ) == Fraction(5, 2)
        jml = JmlComparator(inst, both)
        assert jml.compare(fstar, gh) is Verdict.INDIFFERENT
        assert jml.compare(f, gh) is Verdict.INDIFFERENT
        assert jml.compare(fstar, f) is Verdict.STRICT_BETTER
        config = AuditConfig(axioms=frozenset({Axiom.TRANSITIVITY}), corpus_size=3)
        result = audit(jml, [fstar, gh, f], config).result_for(
            Axiom.TRANSITIVITY
        )
        assert result.status == "fail"
        assert set(result.counterexample) == {fstar, gh, f}
        assert time.perf_counter() - start < 1.0


def test_criterion_3_axiom_necessity_matrix(criterion):
    with criterion(3, "axiom-necessity matrix, 50 seeded instances"):
        start = time.perf_counter()
        rng = random.Random(2024)
        instances_checked = 0
        for seed in range(50):
            inst = random_instance(rng, max_states=3, max_prizes=4)
            report = cross_audit(inst, seed=seed)
            for entry in report.entries:
                failures = entry.report.failures
                assert not failures, (
                    seed,
                    entry.criterion,
                    [r.to_record() for r in failures],
                )
            instances_checked += 1
        assert instances_checked >= 50
        assert time.perf_counter() - start < 300.0


def test_criterion_4_reduction_identities(criterion):
    with criterion(4, "reduction identities, 1000+ pairs"):
        rng = random.Random(77)
        pairs = 0
        while pairs < 1000:
            inst = random_instance(rng)
            credal = random_credal_set(rng, inst)
            structure = random_structure(rng, inst)
            single = CredalSet.singleton(structure)
            hml_one_group = HmlComparator(inst, Collection.of_credal_set(credal))
            hml_singletons = HmlComparator(inst, Collection.of_singletons(credal))
            bml, jml = BmlComparator(inst, credal), JmlComparator(inst, credal)
            bml_single, jml_single = BmlComparator(inst, single), JmlComparator(inst, single)
            sl = SlComparator(inst, structure)
            for _ in range(10):
                F, G = random_menu(rng, inst), random_menu(rng, inst)
                assert hml_one_group.compare(F, G) == bml.compare(F, G)
                assert hml_singletons.compare(F, G) == jml.compare(F, G)
                collapsed = bml_single.compare(F, G)
                assert collapsed == jml_single.compare(F, G)
                assert collapsed == sl.compare(F, G)
                pairs += 1
        assert pairs >= 1000


def _simplex_weights(rng, n):
    raw = [rng.randint(0, 4) for _ in range(n)]
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def test_criterion_5_comparative_statics(criterion):
    with criterion(5, "comparative statics on 20 nested pairs"):
        rng = random.Random(404)
        nested_checked = 0
        while nested_checked < 20:
            inst = random_instance(rng)
            outer = random_credal_set(rng, inst, max_generators=3)
            inner = CredalSet(
                [
                    combine_structures(
                        outer.generators, _simplex_weights(rng, len(outer.generators))
                    )
                    for _ in range(rng.randint(1, 2))
                ]
            )
            assert credal_subset(inner, outer)
            corpus = generate_corpus(
                inst, AuditConfig(corpus_size=30, seed=nested_checked)
            )
            bml_fine = BmlComparator(inst, inner)
            bml_coarse = BmlComparator(inst, outer)
            jml_fine = JmlComparator(inst, inner)
            jml_coarse = JmlComparator(inst, outer)
            assert check_more_decisive(bml_fine, bml_coarse, corpus).passed
            assert check_less_negative_inconsistent(bml_fine, bml_coarse, corpus).passed
            assert check_more_strict_decisive(jml_fine, jml_coarse, corpus).passed
            assert check_less_inconsistent(jml_fine, jml_coarse, corpus).passed
            nested_checked += 1
        assert nested_checked >= 20


def test_criterion_6_uniqueness_surrogates(criterion):
    with criterion(6, "uniqueness surrogates, 500+ trials each"):
        rng = random.Random(6006)
        generator_trials = 0
        rescale_trials = 0
        while generator_trials < 500:
            inst = random_instance(rng)
            credal = random_credal_set(rng, inst)
            redundant = combine_structures(
                credal.generators, _simplex_weights(rng, len(credal.generators))
            )
            padded = CredalSet(credal.generators + (redundant,))
            collection = random_collection(rng, inst)
            member_index = rng.randrange(len(collection.members))
            padded_members = list(collection.members)
            target = padded_members[member_index]
            extra = combine_structures(
                target.generators, _simplex_weights(rng, len(target.generators))
            )
            padded_members[member_index] = CredalSet(target.generators + (extra,))
            padded_collection = Collection(padded_members)
            pairs = [
                (BmlComparator(inst, credal), BmlComparator(inst, padded)),
                (JmlComparator(inst, credal), JmlComparator(inst, padded)),
                (HmlComparator(inst, collection), HmlComparator(inst, padded_collection)),
            ]
            for _ in range(5):
                F, G = random_menu(rng, inst), random_menu(rng, inst)
                for plain, padded_criterion in pairs:
                    assert plain.compare(F, G) == padded_criterion.compare(F, G)
                generator_trials += 1
        while rescale_trials < 500:
            inst = random_instance(rng)
            rescaled = inst.rescaled(3, 7)
            credal = random_credal_set(rng, inst)
            collection = random_collection(rng, inst)
            structure = random_structure(rng, inst)
            pairs = [
                (build(inst, param), build(rescaled, param))
                for build, param in (
                    (BmlComparator, credal),
                    (JmlComparator, credal),
                    (HmlComparator, collection),
                    (SlComparator, structure),
                )
            ]
            for _ in range(5):
                F, G = random_menu(rng, inst), random_menu(rng, inst)
                for plain, on_rescaled in pairs:
                    assert plain.compare(F, G) == on_rescaled.compare(F, G)
                rescale_trials += 1
        assert generator_trials >= 500 and rescale_trials >= 500


def test_criterion_7_support_function_identities(criterion):
    with criterion(7, "support-function identities, 1000+ triples"):
        rng = random.Random(700)
        linearity_triples = 0
        structure_triples = 0
        while linearity_triples < 1000 or structure_triples < 1000:
            inst = random_instance(rng)
            for _ in range(10):
                F, H = random_menu(rng, inst), random_menu(rng, inst)
                p = random_posterior(rng, inst)
                alpha = Fraction(rng.randint(0, 6), 6)
                mixed = mix_menus(F, H, alpha)
                assert support_value(mixed, p, inst) == alpha * support_value(
                    F, p, inst
                ) + (1 - alpha) * support_value(H, p, inst)
                linearity_triples += 1

                a, b = random_structure(rng, inst), random_structure(rng, inst)
                w = Fraction(rng.randint(0, 4), 4)
                blend = mix_structures(a, b, w)
                assert benefit_of_information(F, blend, inst) == w * benefit_of_information(
                    F, a, inst
                ) + (1 - w) * benefit_of_information(F, b, inst)
                structure_triples += 1
        assert linearity_triples >= 1000 and structure_triples >= 1000


def test_criterion_8_rationalization(criterion):
    with criterion(8, "rationalization band/consistency, 500+ configs"):
        rng = random.Random(808)
        policies = [
            AlphaPolicy.cautious(),
            AlphaPolicy.optimistic(),
            AlphaPolicy.constant(Fraction(1, 2)),
        ]
        configs = 0
        sandwich_hits = 0
        while configs < 500:
            inst = random_instance(rng)
            coll = random_collection(rng, inst)
            menus = [random_menu(rng, inst) for _ in range(3)]
            grid = utility_grid_lotteries(inst, steps=4)
            lo, hi = inst.utility_range()
            x = utility_lottery(inst, Fraction(lo + hi, 2))
            for policy in policies:
                value_of = partial(rationalized_value, coll=coll, policy=policy, inst=inst)
                for F in menus:
                    band = scenario_band(F, coll, inst)
                    assert band.low <= value_of(F) <= band.high
                assert value_of(constant_menu(inst, x)) == inst.lottery_utility(x)
                for F, G in itertools.permutations(menus, 2):
                    for witness in grid:
                        xm = constant_menu(inst, witness)
                        if robust_strict(F, xm, coll, inst) and robust_strict(
                            xm, G, coll, inst
                        ):
                            assert value_of(F) > value_of(G)
                            sandwich_hits += 1
                            break
                configs += 1
            entries = rank_menus(menus, coll, policies[0], inst)
            for a in entries:
                for b in entries:
                    assert (a.rank < b.rank) == (a.value > b.value)
        assert configs >= 500
        assert sandwich_hits > 0  # the sandwich antecedent actually fired


def test_criterion_9_convex_membership_oracle(criterion):
    with criterion(9, "convex-membership oracle agreement, 100+ cases"):
        rng = random.Random(909)
        decided_members = 0
        decided_nonmembers = 0
        while decided_members < 50 or decided_nonmembers < 50:
            inst = random_instance(rng, max_states=2, max_prizes=2)
            credal = random_credal_set(rng, inst, max_generators=3)
            posteriors = []
            for gen in credal:
                for p in gen.posteriors:
                    if p not in posteriors:
                        posteriors.append(p)
            vectors = [tuple(gen.weight(p) for p in posteriors) for gen in credal]

            if decided_members < 50:
                # Member case: a grid combination of the generators; the
                # grid oracle re-derives membership independently.
                weights = _grid_simplex_weights(rng, len(credal.generators), 4)
                target = combine_structures(credal.generators, weights)
                combo = tuple(target.weight(p) for p in posteriors)
                assert brute_force_membership(combo, vectors, resolution=4)
                assert credal_subset(CredalSet.singleton(target), credal)
                decided_members += 1

            if decided_nonmembers < 50:
                # Non-member case: positive mass on a posterior no generator
                # mentions, certified outside by the bounding box.
                fresh = random_posterior(rng, inst)
                if any(fresh in gen.posteriors for gen in credal):
                    continue
                outsider = InfoStructure.point_mass(fresh)
                extended = posteriors + [fresh]
                out_vectors = [
                    tuple(gen.weight(p) for p in extended) for gen in credal
                ]
                out_combo = tuple(outsider.weight(p) for p in extended)
                assert outside_bounding_box(out_combo, out_vectors)
                assert not credal_subset(CredalSet.singleton(outsider), credal)
                decided_nonmembers += 1
        assert decided_members >= 50 and decided_nonmembers >= 50


def _grid_simplex_weights(rng, n, resolution):
    cuts = [rng.randint(0, resolution) for _ in range(n - 1)]
    while sum(cuts) > resolution:
        cuts = [rng.randint(0, resolution) for _ in range(n - 1)]
    weights = [Fraction(c, resolution) for c in cuts]
    weights.append(1 - sum(weights))
    return weights
