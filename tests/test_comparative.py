"""Nestedness of credal sets and the decisiveness/inconsistency checks."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

from menulearn import (
    AlphaPolicy,
    BmlComparator,
    CredalSet,
    DimensionMismatchError,
    HmlComparator,
    InfoStructure,
    Instance,
    JmlComparator,
    Lottery,
    Menu,
    Posterior,
    ValidationError,
    alpha_maxmin_collection,
    audit,
    check_consistency,
    check_less_inconsistent,
    check_less_negative_inconsistent,
    check_more_decisive,
    check_more_strict_decisive,
    collection_maxmin_gap,
    combine_structures,
    constant_act,
    constant_menu,
    credal_subset,
    cross_audit,
    dump_document,
    rationalized_value,
    robust_strict,
    solve_convex_combination,
    utility_grid_lotteries,
)
from menulearn.audit import AuditConfig, generate_corpus, random_credal_set, random_instance
from menulearn.comparative import _phase_one, _scan

from conftest import twin_menu
from reference_comparative import (
    reference_less_inconsistent,
    reference_less_negative_inconsistent,
    reference_more_decisive,
    reference_more_strict_decisive,
    reference_phase_one,
    reference_scan,
)


def brute_force_membership(target, generators, resolution: int = 12):
    """Grid oracle: True when some convex combination on the grid hits the target.

    Only sound for *positive* decisions: a miss at this resolution is
    inconclusive, not a disproof.
    """
    n = len(generators)
    for split in itertools.product(range(resolution + 1), repeat=n - 1):
        if sum(split) > resolution:
            continue
        weights = [Fraction(s, resolution) for s in split]
        weights.append(1 - sum(weights))
        candidate = [
            sum(w * gen[i] for w, gen in zip(weights, generators))
            for i in range(len(target))
        ]
        if candidate == list(target):
            return True
    return False


def outside_bounding_box(target, generators):
    """Certificate of non-membership: a coordinate beyond every generator's range."""
    for i in range(len(target)):
        values = [gen[i] for gen in generators]
        if target[i] > max(values) or target[i] < min(values):
            return True
    return False


class TestConvexCombination:
    def test_random_feasible_systems_reconstruct_target(self):
        # The solver's weights must reproduce a known combination exactly;
        # on 1-D segments a target beyond the max coordinate is infeasible.
        rng = random.Random(123)

        def rand_vec(dim):
            return tuple(Fraction(rng.randint(-18, 18), 6) for _ in range(dim))

        for _ in range(300):
            dim, n = rng.randint(1, 4), rng.randint(1, 4)
            gens = [rand_vec(dim) for _ in range(n)]
            raw = [rng.randint(0, 5) for _ in range(n)]
            if not any(raw):
                raw[0] = 1
            weights = [Fraction(r, sum(raw)) for r in raw]
            target = tuple(
                sum(w * g[i] for w, g in zip(weights, gens)) for i in range(dim)
            )
            got = solve_convex_combination(target, gens)
            assert got is not None
            assert sum(got) == 1 and all(w >= 0 for w in got)
            recon = tuple(sum(w * g[i] for w, g in zip(got, gens)) for i in range(dim))
            assert recon == target
        for _ in range(200):
            gens = [rand_vec(1) for _ in range(rng.randint(1, 4))]
            beyond = (max(g[0] for g in gens) + Fraction(1, 7),)
            assert solve_convex_combination(beyond, gens) is None

    def test_midpoint(self):
        gens = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
        weights = solve_convex_combination((Fraction(1, 2), Fraction(1, 2)), gens)
        assert weights == (Fraction(1, 2), Fraction(1, 2))

    def test_generator_itself(self):
        gens = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
        weights = solve_convex_combination((Fraction(0), Fraction(1)), gens)
        assert weights is not None
        assert sum(weights) == 1 and all(w >= 0 for w in weights)

    def test_outside_segment(self):
        gens = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
        assert solve_convex_combination((Fraction(2), Fraction(-1)), gens) is None

    def test_interior_of_triangle(self):
        gens = [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ]
        target = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
        weights = solve_convex_combination(target, gens)
        assert weights == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))

    def test_entries_are_exact_rationals(self):
        # Read as binary floats, 0.1 and 0.9 do not sum to 1, so the target
        # would silently fall outside the segment; a float is refused instead.
        gens = [[0, 1], [1, 0]]
        with pytest.raises(TypeError, match="exact rational"):
            solve_convex_combination([0.1, 0.9], gens)
        with pytest.raises(TypeError, match="exact rational"):
            solve_convex_combination(["1/2", "1/2"], [[0, 1.0], [1, 0]])
        for text in (" 1/2", "1e0", "1/2 "):
            with pytest.raises(ValidationError, match="malformed rational"):
                solve_convex_combination([text, "1/2"], gens)
        assert solve_convex_combination(["1/10", "0.9"], gens) == (Fraction(9, 10), Fraction(1, 10))


class TestFractionFreeSimplex:
    """The integer tableau pivots as the Fraction simplex does, so it returns its weights."""

    @staticmethod
    def system(rng, feasible):
        dim, n = rng.randint(1, 4), rng.randint(1, 5)
        entry = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        gens = [[entry() for _ in range(dim)] for _ in range(n)]
        if rng.random() < 0.3:
            gens.append(list(gens[0]))  # a repeated generator: ties in the ratio test
        if feasible:
            raw = [rng.randint(0, 3) for _ in gens]
            raw[rng.randrange(len(gens))] += 1
            weights = [Fraction(r, sum(raw)) for r in raw]
            target = [sum(w * g[i] for w, g in zip(weights, gens)) for i in range(dim)]
        else:
            target = [entry() for _ in range(dim)]
        return target, gens

    def test_convex_weights_equal_the_fraction_simplex(self):
        rng = random.Random(2026)
        infeasible = 0
        for trial in range(600):
            target, gens = self.system(rng, feasible=trial % 2 == 0)
            dim = len(target)
            rows = [[g[i] for g in gens] for i in range(dim)] + [[Fraction(1)] * len(gens)]
            expected = reference_phase_one(rows, [*target, Fraction(1)])
            got = solve_convex_combination(target, gens)
            assert got == (None if expected is None else tuple(expected))
            if got is None:
                infeasible += 1
                assert trial % 2 == 1
                continue
            assert all(w >= 0 for w in got) and sum(got) == 1
            assert [sum(w * g[i] for w, g in zip(got, gens)) for i in range(dim)] == target
        assert 0 < infeasible < 300

    def test_general_systems_equal_the_fraction_simplex(self):
        # Rows without the sum-to-one row, right-hand sides of either sign.
        rng = random.Random(17)
        for _ in range(400):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            entry = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            rows = [[entry() for _ in range(n)] for _ in range(m)]
            rhs = [entry() for _ in range(m)]
            assert _phase_one(rows, rhs) == reference_phase_one(rows, rhs)


class TestMaskScan:
    """`_scan` over mask rows against the scan of one fired tuple at a time."""

    @staticmethod
    def expanded(rows):
        return [
            (offset + b, ("item", offset + b), bool(holds >> b & 1))
            for offset, fired, holds, _ in rows
            for b in range(fired.bit_length())
            if fired >> b & 1
        ]

    @staticmethod
    def scan(rows, total, cap):
        built = []

        def item_of(offset):
            return lambda b: built.append(b) or ("item", offset + b)

        report = _scan([(o, f, h, item_of(o)) for o, f, h, _ in rows], total, cap)
        assert len(built) == (report[0] == "fail")  # an item only for the witness
        return report

    def test_random_rows_and_caps(self):
        rng = random.Random(11)
        for _ in range(300):
            rows, offset = [], 0
            for _ in range(rng.randint(0, 5)):
                offset += rng.randint(0, 3)
                width = rng.randint(1, 9)
                fired = rng.getrandbits(width)
                rare = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
                holds = ~rare if rng.random() < 0.5 else -1
                rows.append((offset, fired, holds, None))
                offset += width
            total, fired = offset + rng.randint(0, 2), self.expanded(rows)
            for cap in (None, *range(1, len(fired) + 2)):
                assert self.scan(rows, total, cap) == reference_scan(fired, total, cap)

    def test_cap_on_the_violation_and_on_a_row_boundary(self):
        # Fired positions 1, 2, 4, 5 and 6; the consequent fails at 5 and 6.
        rows = [(0, 0b0110, 0b0110, None), (4, 0b0111, 0b0001, None)]
        fired = self.expanded(rows)
        reports = {cap: self.scan(rows, 7, cap) for cap in (None, 1, 2, 3, 4, 5)}
        assert reports[2] == ("truncated", None, 4, 2)  # the next fired tuple opens row 2
        assert reports[3] == ("truncated", None, 5, 3)  # the cap lands on the violation
        assert reports[4] == reports[5] == reports[None] == ("fail", ("item", 5), 6, 4)
        assert all(report == reference_scan(fired, 7, cap) for cap, report in reports.items())


class TestCredalSubset:
    def test_midpoint_generator_is_inside(self, example1):
        both = example1.credal_set("both")
        midpoint = combine_structures(both.generators, (Fraction(1, 2), Fraction(1, 2)))
        assert credal_subset(CredalSet.singleton(midpoint), both)

    def test_set_contains_itself(self, example1):
        both = example1.credal_set("both")
        assert credal_subset(both, both)

    def test_point_mass_outside_example_hull(self, example1):
        outside = InfoStructure.point_mass(Posterior.degenerate("w1"))
        assert not credal_subset(CredalSet.singleton(outside), example1.credal_set("both"))

    def test_nested_but_not_equal(self, example1):
        both = example1.credal_set("both")
        third = combine_structures(both.generators, (Fraction(1, 3), Fraction(2, 3)))
        two_thirds = combine_structures(both.generators, (Fraction(2, 3), Fraction(1, 3)))
        inner = CredalSet((third, two_thirds))
        assert credal_subset(inner, both)
        assert not credal_subset(both, inner)

    def test_dimension_mismatch_with_instance(self, example1):
        stray = InfoStructure.point_mass(Posterior.degenerate("elsewhere"))
        with pytest.raises(DimensionMismatchError):
            credal_subset(
                CredalSet.singleton(stray),
                example1.credal_set("both"),
                instance=example1.instance,
            )

    def test_reflexive_and_transitive_on_nested_chain(self):
        rng = random.Random(3)
        for _ in range(10):
            inst = random_instance(rng)
            outer = random_credal_set(rng, inst, max_generators=3)
            mid_gens = [
                combine_structures(
                    outer.generators,
                    _simplex_weights(rng, len(outer.generators)),
                )
                for _ in range(2)
            ]
            mid = CredalSet(mid_gens)
            inner = CredalSet(
                [combine_structures(mid.generators, _simplex_weights(rng, len(mid.generators)))]
            )
            assert credal_subset(outer, outer)
            assert credal_subset(mid, outer)
            assert credal_subset(inner, mid)
            assert credal_subset(inner, outer)

    def test_agrees_with_grid_oracle_on_decided_cases(self):
        # Positive cases are built on the oracle's own grid; negative cases
        # carry a bounding-box certificate.  Exercised at scale in the
        # acceptance suite; this is the smoke version.
        rng = random.Random(5)
        decided = 0
        while decided < 20:
            inst = random_instance(rng)
            credal = random_credal_set(rng, inst, max_generators=3)
            vectors, combo, target_structure = _embedded_case(rng, credal)
            if brute_force_membership(combo, vectors, resolution=4):
                assert credal_subset(CredalSet.singleton(target_structure), credal)
                decided += 1


def _simplex_weights(rng, n):
    raw = [rng.randint(0, 4) for _ in range(n)]
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def _embedded_case(rng, credal):
    """A grid convex combination of the generators, plus its embedding."""
    weights = [Fraction(rng.randint(0, 4), 4) for _ in range(len(credal.generators) - 1)]
    while sum(weights) > 1:
        weights = [Fraction(rng.randint(0, 4), 4) for _ in range(len(credal.generators) - 1)]
    weights.append(1 - sum(weights))
    target = combine_structures(credal.generators, weights)
    posteriors = []
    for gen in list(credal.generators) + [target]:
        for p in gen.posteriors:
            if p not in posteriors:
                posteriors.append(p)
    vectors = [tuple(gen.weight(p) for p in posteriors) for gen in credal.generators]
    combo = tuple(target.weight(p) for p in posteriors)
    return vectors, combo, target


def _nested_pair(rng, inst):
    outer = random_credal_set(rng, inst, max_generators=3)
    inner_gens = [
        combine_structures(outer.generators, _simplex_weights(rng, len(outer.generators)))
        for _ in range(rng.randint(1, 2))
    ]
    return CredalSet(inner_gens), outer


class TestDecisivenessChecks:
    def _corpus(self, inst, seed=0, size=12):
        return generate_corpus(inst, AuditConfig(corpus_size=size, seed=seed))

    def test_nested_sets_pass_all_four_checks(self):
        rng = random.Random(21)
        for trial in range(5):
            inst = random_instance(rng)
            inner, outer = _nested_pair(rng, inst)
            assert credal_subset(inner, outer)
            corpus = self._corpus(inst, seed=trial)
            bml1, bml2 = BmlComparator(inst, inner), BmlComparator(inst, outer)
            jml1, jml2 = JmlComparator(inst, inner), JmlComparator(inst, outer)
            assert check_more_decisive(bml1, bml2, corpus).passed
            assert check_less_negative_inconsistent(bml1, bml2, corpus).passed
            assert check_more_strict_decisive(jml1, jml2, corpus).passed
            assert check_less_inconsistent(jml1, jml2, corpus).passed

    def test_identical_sets_pass(self, example1):
        inst = example1.instance
        both = example1.credal_set("both")
        corpus = self._corpus(inst)
        bml = BmlComparator(inst, both)
        jml = JmlComparator(inst, both)
        assert check_more_decisive(bml, bml, corpus).status == "pass"
        assert check_more_strict_decisive(jml, jml, corpus).status == "pass"
        assert check_less_negative_inconsistent(bml, bml, corpus).passed
        assert check_less_inconsistent(jml, jml, corpus).passed

    def test_singleton_set_never_fires_inconsistency(self, example1):
        # A single structure cannot produce the indecision chain at all, so
        # the check is vacuous; confirmed by brute force over the corpus.
        inst = example1.instance
        single = CredalSet.singleton(example1.info_structure("pi"))
        both = example1.credal_set("both")
        corpus = self._corpus(inst)
        report = check_less_negative_inconsistent(
            BmlComparator(inst, single), BmlComparator(inst, both), corpus
        )
        assert report.status == "vacuous"
        assert report.antecedents == 0

    def test_jml_singleton_never_fires_inconsistency(self, example1):
        # With one structure the chain F >= G >= H cannot coexist with H
        # strictly dominating F, so the antecedent is empty.
        inst = example1.instance
        single = CredalSet.singleton(example1.info_structure("delta_p"))
        both = example1.credal_set("both")
        corpus = self._corpus(inst)
        report = check_less_inconsistent(
            JmlComparator(inst, single), JmlComparator(inst, both), corpus
        )
        assert report.status == "vacuous"
        assert report.antecedents == 0

    def test_non_nested_sets_yield_witness(self, example1):
        # Disjoint singletons from the worked example disagree on the pair
        # (safe menu, risky pair), so the corpus containing them separates.
        inst = example1.instance
        pi_only = CredalSet.singleton(example1.info_structure("pi"))
        delta_only = CredalSet.singleton(example1.info_structure("delta_p"))
        assert not credal_subset(pi_only, delta_only)
        corpus = [example1.menu("f"), example1.menu("gh")]
        report = check_more_decisive(
            BmlComparator(inst, pi_only), BmlComparator(inst, delta_only), corpus
        )
        assert report.status == "fail"
        assert report.witness == (example1.menu("f"), example1.menu("gh"))

    def test_non_nested_sets_yield_strict_witness(self, example1):
        # Same separation for the veto criterion's strict comparisons.
        inst = example1.instance
        pi_only = CredalSet.singleton(example1.info_structure("pi"))
        delta_only = CredalSet.singleton(example1.info_structure("delta_p"))
        corpus = [example1.menu("f"), example1.menu("gh")]
        report = check_more_strict_decisive(
            JmlComparator(inst, pi_only), JmlComparator(inst, delta_only), corpus
        )
        assert report.status == "fail"
        assert report.witness == (example1.menu("f"), example1.menu("gh"))

    def test_reports_serialize(self, example1):
        inst = example1.instance
        both = example1.credal_set("both")
        corpus = self._corpus(inst, size=6)
        record = check_more_decisive(
            BmlComparator(inst, both), BmlComparator(inst, both), corpus
        ).to_record()
        assert record["check"] == "more_decisive"
        assert record["status"] in ("pass", "vacuous")


#: Each check, its reference, and the criterion it compares.
CHECKS = (
    (check_more_decisive, reference_more_decisive, BmlComparator),
    (check_less_negative_inconsistent, reference_less_negative_inconsistent, BmlComparator),
    (check_more_strict_decisive, reference_more_strict_decisive, JmlComparator),
    (check_less_inconsistent, reference_less_inconsistent, JmlComparator),
)


def assert_checks_match_reference(inst, first, second, corpus):
    """The four checks equal their references on fresh criteria, witness menus included."""
    reports = []
    for check, reference, kind in CHECKS:
        got = check(kind(inst, first), kind(inst, second), corpus)
        want = reference(kind(inst, first), kind(inst, second), corpus)
        assert got == want
        if got.witness is not None:
            assert all(a is b for a, b in zip(got.witness, want.witness))
        reports.append(got)
    return reports


class TestReferenceComparative:
    """The bitset checks against the plain pair-by-pair reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_nested_pairs(self, seed):
        rng = random.Random(700 + seed)
        inst = random_instance(rng)
        inner, outer = _nested_pair(rng, inst)
        corpus = generate_corpus(inst, AuditConfig(corpus_size=10, seed=seed))
        reports = assert_checks_match_reference(inst, inner, outer, corpus)
        assert all(report.passed for report in reports)

    def test_swapped_roles_fail_every_check(self):
        failed = set()
        for seed in range(12):
            rng = random.Random(700 + seed)
            inst = random_instance(rng)
            inner, outer = _nested_pair(rng, inst)
            corpus = generate_corpus(inst, AuditConfig(corpus_size=10, seed=seed))
            for report in assert_checks_match_reference(inst, outer, inner, corpus):
                if report.status == "fail":
                    failed.add(report.check)
        assert failed == {check.__name__.removeprefix("check_") for check, _, _ in CHECKS}

    def test_corpus_with_repeated_menus(self, example1):
        # As `menulearn comparative` builds it: the generated corpus, then the
        # document's menus; twins of generated menus repeat values by new objects.
        inst = example1.instance
        both = example1.credal_set("both")
        third = combine_structures(both.generators, (Fraction(1, 3), Fraction(2, 3)))
        corpus = generate_corpus(inst, AuditConfig(corpus_size=8, seed=4))
        corpus.extend(example1.menus[name] for name in sorted(example1.menus))
        corpus.extend(twin_menu(menu) for menu in corpus[:4])
        corpus.append(corpus[1])
        for first, second in ((CredalSet.singleton(third), both), (both, CredalSet.singleton(third))):
            assert_checks_match_reference(inst, first, second, corpus)

    def test_empty_corpus(self, example1):
        both = example1.credal_set("both")
        for report in assert_checks_match_reference(example1.instance, both, both, []):
            assert (report.status, report.tuples_checked, report.antecedents) == ("vacuous", 0, 0)


def typed_engines(example):
    """Each engine that reads a corpus of menus or a list of lotteries, by name:
    the type its entries must have and a call running it on given entries."""
    inst, both = example.instance, example.credal_set("both")
    bml, jml = BmlComparator(inst, both), JmlComparator(inst, both)
    hml = HmlComparator(inst, example.collection("split"))
    value_of = partial(
        rationalized_value, coll=hml.collection, policy=AlphaPolicy.cautious(), inst=inst
    )
    grid = utility_grid_lotteries(inst, steps=2)
    return {
        "audit": (Menu, lambda corpus: audit(bml, corpus, AuditConfig(corpus_size=2))),
        "more_decisive": (Menu, lambda corpus: check_more_decisive(bml, bml, corpus)),
        "more_strict_decisive": (Menu, lambda corpus: check_more_strict_decisive(jml, jml, corpus)),
        "less_negative_inconsistent": (
            Menu,
            lambda corpus: check_less_negative_inconsistent(bml, bml, corpus),
        ),
        "less_inconsistent": (Menu, lambda corpus: check_less_inconsistent(jml, jml, corpus)),
        "consistency_corpus": (Menu, lambda corpus: check_consistency(value_of, hml, corpus, grid)),
        "consistency_lotteries": (
            Lottery,
            lambda lotteries: check_consistency(value_of, hml, [example.menu("f")], lotteries),
        ),
    }


class TestTypedCorpora:
    @pytest.mark.parametrize(
        "engine",
        [
            "audit",
            "more_decisive",
            "more_strict_decisive",
            "less_negative_inconsistent",
            "less_inconsistent",
            "consistency_corpus",
            "consistency_lotteries",
        ],
    )
    @pytest.mark.parametrize("stray", ["x", 3])
    def test_entries_must_have_the_engine_type(self, example1, engine, stray):
        # A stray entry is named as such, not reported later as an unknown
        # state or prize, or as a bare "not iterable".
        kind, run = typed_engines(example1)[engine]
        if kind is Menu:
            valid = example1.menu("f")
        else:
            valid = Lottery.degenerate(example1.instance.best_prize())
        for entries in ([stray], [valid, stray]):
            with pytest.raises(TypeError) as info:
                run(entries)
            assert str(info.value) == f"expected a {kind.__name__}, got {stray!r}"
        run([valid, valid])


def typed_entry_points(example):
    """Each public entry point that takes one domain object, by name: the type that
    argument must have and a call passing a given value in its place."""
    inst, both = example.instance, example.credal_set("both")
    coll, f = example.collection("split"), example.menu("f")
    bml, cautious = BmlComparator(inst, both), AlphaPolicy.cautious()
    x = Lottery.degenerate(inst.best_prize())
    return {
        "collection_maxmin_gap": ("Collection", lambda v: collection_maxmin_gap(f, f, v, inst)),
        "robust_strict": ("Collection", lambda v: robust_strict(f, f, v, inst)),
        "utility_grid_lotteries": ("Instance", lambda v: utility_grid_lotteries(v)),
        "check_consistency": ("Criterion", lambda v: check_consistency(len, v, [f], [x])),
        "credal_subset": ("Instance", lambda v: credal_subset(both, both, instance=v)),
        "more_decisive_first": ("Criterion", lambda v: check_more_decisive(v, bml, [f])),
        "more_strict_decisive_second": (
            "Criterion",
            lambda v: check_more_strict_decisive(bml, v, [f]),
        ),
        "less_inconsistent_first": ("Criterion", lambda v: check_less_inconsistent(v, bml, [f])),
        "less_negative_inconsistent_second": (
            "Criterion",
            lambda v: check_less_negative_inconsistent(bml, v, [f]),
        ),
        "constant_act": ("Instance", lambda v: constant_act(v, x)),
        "constant_menu": ("Instance", lambda v: constant_menu(v, x)),
        "cross_audit": ("Instance", lambda v: cross_audit(v)),
        "dump_document": ("Workspace", lambda v: dump_document(v)),
        "alpha_maxmin_collection": (
            "CredalSet",
            lambda v: alpha_maxmin_collection(v, Fraction(1, 2)),
        ),
        "rationalized_value": ("AlphaPolicy", lambda v: rationalized_value(f, coll, v, inst)),
        "instance_states": (
            "sequence of labels",
            lambda v: Instance(states=v, prizes=("a", "b"), utility={"a": 0, "b": 1}),
        ),
        "instance_prizes": (
            "sequence of labels",
            lambda v: Instance(states=("s",), prizes=v, utility={"a": 0, "b": 1}),
        ),
    }


class TestTypedEntryPoints:
    @pytest.mark.parametrize(
        "entry",
        [
            "collection_maxmin_gap",
            "robust_strict",
            "utility_grid_lotteries",
            "check_consistency",
            "credal_subset",
            "more_decisive_first",
            "more_strict_decisive_second",
            "less_inconsistent_first",
            "less_negative_inconsistent_second",
            "constant_act",
            "constant_menu",
            "cross_audit",
            "dump_document",
            "alpha_maxmin_collection",
            "rationalized_value",
            "instance_states",
            "instance_prizes",
        ],
    )
    def test_argument_of_the_wrong_type_is_named(self, example1, entry):
        # The wrong argument is named with the type it must have, not reported
        # as a bare AttributeError, as another type, or (a string of labels)
        # split into one-character labels.
        kind, run = typed_entry_points(example1)[entry]
        article = "an" if kind[0] in "AEIOU" else "a"
        stray = "s1s2"
        with pytest.raises(TypeError) as info:
            run(stray)
        assert str(info.value) == f"expected {article} {kind}, got {stray!r}"
