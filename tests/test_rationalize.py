"""Scenario bands, robust strictness, and the blended ranking."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menulearn import (
    AlphaPolicy,
    BadWeightError,
    Collection,
    CredalSet,
    HmlComparator,
    Lottery,
    Menu,
    RankEntry,
    ScenarioBand,
    ValidationError,
    check_consistency,
    constant_menu,
    mix_menus,
    rank_menus,
    rationalized_value,
    robust_strict,
    scenario_band,
    utility_grid_lotteries,
    Verdict,
)
from menulearn import criteria, rationalize
from menulearn.audit import random_collection, random_instance, random_lottery, random_menu

import reference_evaluation as ref
from conftest import (
    collections,
    instances,
    menu_of,
    menus,
    scenarios,
    structures,
    twin_instance,
    twin_menu,
    utility_lottery,
)
from reference_comparative import reference_check_consistency


@pytest.fixture()
def split_collection(example1):
    return example1.collection("split")


class TestScenarioBand:
    def test_example_band(self, example1, split_collection):
        band = scenario_band(example1.menu("gh"), split_collection, example1.instance)
        assert band.maxmin == 3
        assert band.minmax == Fraction(3, 2)
        assert band.low == Fraction(3, 2)
        assert band.high == 3

    def test_singleton_everything_degenerates(self, example1):
        inst = example1.instance
        pi = example1.info_structure("pi")
        coll = Collection((CredalSet.singleton(pi),))
        band = scenario_band(example1.menu("gh"), coll, inst)
        assert band.degenerate and band.maxmin == 3

    def test_constant_menu_band_is_a_point(self, example1, split_collection):
        band = scenario_band(example1.menu("f"), split_collection, example1.instance)
        assert band.low == band.high == 2


class TestRobustStrict:
    def test_uniformly_better_menu_wins(self, two_state_instance):
        from menulearn.audit import random_collection

        coll = random_collection(random.Random(9), two_state_instance)
        high = menu_of(two_state_instance, (3, 3))
        low = menu_of(two_state_instance, (1, 1), (2, 0))
        assert robust_strict(high, low, coll, two_state_instance)
        assert not robust_strict(low, high, coll, two_state_instance)

    def test_irreflexive(self, example1, split_collection):
        gh = example1.menu("gh")
        assert not robust_strict(gh, gh, split_collection, example1.instance)

    def test_example_pair_is_not_robust(self, example1, split_collection):
        # One group strictly favors the risky pair, but the other group
        # weakly favors the safe act, so the strict call is not robust.
        inst = example1.instance
        f, gh = example1.menu("f"), example1.menu("gh")
        assert not robust_strict(gh, f, split_collection, inst)
        assert not robust_strict(f, gh, split_collection, inst)

    def test_closed_form_matches_epsilon_mixture_definition(self):
        # Oracle: robustness means strictness survives mixing both menus a
        # little toward arbitrary outcomes.  Because all gaps are linear in
        # the mixing weight, an exact threshold below which strictness must
        # hold can be computed; conversely, a non-robust pair is defeated by
        # the adversarial extreme outcomes at any weight.
        from menulearn import Lottery, collection_maxmin_gap

        rng = random.Random(99)
        confirmed_robust = 0
        confirmed_fragile = 0
        while confirmed_robust < 25 or confirmed_fragile < 25:
            inst = random_instance(rng)
            coll = random_collection(rng, inst)
            F, G = random_menu(rng, inst), random_menu(rng, inst)
            hml = HmlComparator(inst, coll)
            worst = constant_menu(inst, Lottery.degenerate(inst.worst_prize()))
            best = constant_menu(inst, Lottery.degenerate(inst.best_prize()))
            lo, hi = inst.utility_range()
            spread = hi - lo
            forward = collection_maxmin_gap(F, G, coll, inst)
            backward = collection_maxmin_gap(G, F, coll, inst)
            extremes = ((worst, best), (best, worst), (worst, worst), (best, best))
            if robust_strict(F, G, coll, inst):
                if confirmed_robust >= 25:
                    continue
                eps = min(forward, -backward) / (
                    2 * (forward + (-backward) + spread + 1)
                )
                for x, y in extremes:
                    mixed_F = mix_menus(F, x, 1 - eps)
                    mixed_G = mix_menus(G, y, 1 - eps)
                    assert hml.compare(mixed_F, mixed_G) is Verdict.STRICT_BETTER
                confirmed_robust += 1
            else:
                if confirmed_fragile >= 25:
                    continue
                eps = Fraction(1, 8)
                defeated = any(
                    hml.compare(mix_menus(F, x, 1 - eps), mix_menus(G, y, 1 - eps))
                    is not Verdict.STRICT_BETTER
                    for x, y in extremes
                )
                assert defeated
                confirmed_fragile += 1


class TestRationalizedValue:
    def test_constant_menu_scores_its_utility(self, example1, split_collection):
        inst = example1.instance
        for policy in (AlphaPolicy.cautious(), AlphaPolicy.optimistic(), AlphaPolicy.constant(Fraction(1, 3))):
            assert rationalized_value(example1.menu("f"), split_collection, policy, inst) == 2

    def test_full_weight_on_maxmin(self, example1, split_collection):
        value = rationalized_value(
            example1.menu("gh"), split_collection, AlphaPolicy.constant(1), example1.instance
        )
        assert value == 3

    def test_even_blend(self, example1, split_collection):
        value = rationalized_value(
            example1.menu("gh"),
            split_collection,
            AlphaPolicy.constant(Fraction(1, 2)),
            example1.instance,
        )
        assert value == Fraction(9, 4)

    def test_cautious_and_optimistic_hit_band_ends(self, example1, split_collection):
        inst = example1.instance
        gh = example1.menu("gh")
        band = scenario_band(gh, split_collection, inst)
        assert rationalized_value(gh, split_collection, AlphaPolicy.cautious(), inst) == band.low
        assert rationalized_value(gh, split_collection, AlphaPolicy.optimistic(), inst) == band.high

    def test_custom_policy_by_mapping(self, example1, split_collection):
        inst = example1.instance
        gh = example1.menu("gh")
        policy = AlphaPolicy.custom({gh: Fraction(1)})
        assert rationalized_value(gh, split_collection, policy, inst) == 3

    def test_custom_mapping_without_the_menu(self, example1, split_collection):
        policy = AlphaPolicy.custom({})
        with pytest.raises(BadWeightError, match="no weight"):
            rationalized_value(example1.menu("f"), split_collection, policy, example1.instance)

    def test_bad_constant_weight_rejected(self):
        with pytest.raises(BadWeightError):
            AlphaPolicy.constant(2)

    def test_bad_custom_weight_rejected(self, example1, split_collection):
        policy = AlphaPolicy.custom(lambda menu: Fraction(3, 2))
        with pytest.raises(BadWeightError):
            rationalized_value(example1.menu("f"), split_collection, policy, example1.instance)


class TestRankMenus:
    def test_constant_menus_rank_by_utility(self, two_state_instance):
        inst = two_state_instance
        coll = random_collection(random.Random(2), inst)
        menus_ = [
            constant_menu(inst, utility_lottery(inst, v)) for v in (1, 3, 0)
        ]
        entries = rank_menus(menus_, coll, AlphaPolicy.cautious(), inst,
                             names=["mid", "top", "bottom"])
        assert [e.name for e in entries] == ["top", "mid", "bottom"]
        assert [e.value for e in entries] == [3, 1, 0]
        assert [e.rank for e in entries] == [1, 2, 3]

    def test_worked_example_ranking(self, example2):
        inst = example2.instance
        coll = example2.collection("split")
        names = ["f", "fstar", "gh"]
        entries = rank_menus(
            [example2.menu(n) for n in names], coll, AlphaPolicy.cautious(), inst, names=names
        )
        assert [e.name for e in entries] == ["fstar", "f", "gh"]
        assert [e.value for e in entries] == [Fraction(5, 2), 2, Fraction(3, 2)]

    def test_single_menu(self, example1, split_collection):
        entries = rank_menus(
            [example1.menu("f")], split_collection, AlphaPolicy.optimistic(), example1.instance
        )
        assert len(entries) == 1 and entries[0].rank == 1

    def test_bad_requests_raise_validation_errors(self, example1, split_collection):
        inst, f = example1.instance, example1.menu("f")
        policy = AlphaPolicy.cautious()
        with pytest.raises(ValidationError, match="at least one menu"):
            rank_menus([], split_collection, policy, inst)
        with pytest.raises(ValidationError, match="one name per menu"):
            rank_menus([f], split_collection, policy, inst, names=["f", "g"])
        with pytest.raises(ValidationError) as info:
            rank_menus([f, f], split_collection, policy, inst, names=["f", "f"])
        assert str(info.value) == "duplicate menu name 'f'"
        with pytest.raises(ValidationError, match="at least one grid step"):
            utility_grid_lotteries(inst, steps=0)
        for steps in (2.5, "3", True):
            with pytest.raises(ValidationError) as info:
                utility_grid_lotteries(inst, steps=steps)
            assert str(info.value) == f"steps must be an int, got {steps!r}"

    def test_policy_and_names_must_have_their_types(self, example1, split_collection):
        inst, f = example1.instance, example1.menu("f")
        for call in (
            lambda: rank_menus([f], split_collection, "policy", inst),
            lambda: rank_menus([f], split_collection, None, inst, names=["f"]),
        ):
            with pytest.raises(TypeError, match=r"^expected an AlphaPolicy, got "):
                call()
        for name in (["f"], 3, None):
            with pytest.raises(TypeError) as info:
                rank_menus([f], split_collection, AlphaPolicy.cautious(), inst, names=[name])
            assert str(info.value) == f"expected a str, got {name!r}"

    @pytest.mark.parametrize("stray", ["x", 3])
    def test_corpus_entries_must_be_menus(self, example1, split_collection, stray):
        corpus = [example1.menu("f"), stray]
        with pytest.raises(TypeError) as info:
            rank_menus(corpus, split_collection, AlphaPolicy.cautious(), example1.instance)
        assert str(info.value) == f"expected a Menu, got {stray!r}"

    def test_ties_share_rank(self, two_state_instance):
        inst = two_state_instance
        coll = random_collection(random.Random(2), inst)
        same = constant_menu(inst, utility_lottery(inst, 2))
        other = constant_menu(inst, utility_lottery(inst, 1))
        entries = rank_menus(
            [same, Menu(same.acts), other], coll, AlphaPolicy.cautious(), inst,
            names=["a", "b", "c"],
        )
        assert [e.rank for e in entries] == [1, 1, 3]

    def test_total_preorder(self):
        rng = random.Random(13)
        inst = random_instance(rng)
        coll = random_collection(rng, inst)
        menus_ = [random_menu(rng, inst) for _ in range(6)]
        entries = rank_menus(menus_, coll, AlphaPolicy.constant(Fraction(1, 2)), inst)
        for a in entries:
            for b in entries:
                assert (a.rank < b.rank) == (a.value > b.value)
                assert (a.rank == b.rank) == (a.value == b.value)


#: Scores a ranking's consistency is checked on, from the cautious rationalized value.
SCORES = {
    "correct": lambda value: value,
    "negated": lambda value: lambda menu: -value(menu),
    "constant": lambda value: lambda menu: Fraction(0),
}


class TestConsistency:
    @pytest.mark.parametrize("score", sorted(SCORES))
    def test_reports_match_reference(self, score):
        # Whole reports, witness and counts included.  The lotteries repeat
        # utilities (a grid end again as a prize, random draws), so ties in
        # utility fire the lottery condition, and the corpus repeats a menu.
        statuses = set()
        for seed in range(30):
            rng = random.Random(900 + seed)
            inst = random_instance(rng)
            coll = random_collection(rng, inst)
            corpus = [random_menu(rng, inst) for _ in range(5)]
            corpus.append(twin_menu(corpus[1]))
            lotteries = utility_grid_lotteries(inst, steps=4)
            lotteries += [Lottery.degenerate(prize) for prize in inst.prizes]
            lotteries += [random_lottery(rng, inst) for _ in range(2)]
            value_of = SCORES[score](
                partial(rationalized_value, coll=coll, policy=AlphaPolicy.cautious(), inst=inst)
            )
            comparator = HmlComparator(inst, coll)
            report = check_consistency(value_of, comparator, corpus, lotteries)
            assert report == reference_check_consistency(value_of, comparator, corpus, lotteries)
            statuses |= {
                (check.check, check.status)
                for check in (report.lottery_consistency, report.robust_strict_consistency)
            }
        expected = {
            "correct": {("lottery_consistency", "pass"), ("robust_strict_consistency", "pass")},
            "negated": {("lottery_consistency", "fail"), ("robust_strict_consistency", "fail")},
            "constant": {("lottery_consistency", "pass"), ("robust_strict_consistency", "fail")},
        }[score]
        assert expected <= statuses
        if score == "correct":
            assert {status for _, status in statuses} <= {"pass", "vacuous"}

    def test_strict_antecedent_is_decided_on_the_bands(self, monkeypatch):
        # No pairwise robust_strict or gap evaluation: the report, equal to the
        # reference's, comes from one band pass over the corpus.
        calls = []
        for module, name in (
            (rationalize, "robust_strict"),
            (rationalize, "collection_maxmin_gap"),
            (criteria, "collection_maxmin_gap"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        reports = []
        for seed in range(10):
            rng = random.Random(700 + seed)
            inst = random_instance(rng)
            coll = random_collection(rng, inst)
            corpus = [random_menu(rng, inst) for _ in range(6)]
            lotteries = utility_grid_lotteries(inst, steps=4)
            value_of = partial(
                rationalized_value, coll=coll, policy=AlphaPolicy.cautious(), inst=inst
            )
            comparator = HmlComparator(inst, coll)
            report = check_consistency(value_of, comparator, corpus, lotteries)
            reports.append((report, (value_of, comparator, corpus, lotteries)))
        assert calls == []
        monkeypatch.undo()
        for report, args in reports:
            assert report == reference_check_consistency(*args)
        assert any(report.robust_strict_consistency.antecedents for report, _ in reports)

    @pytest.mark.parametrize("score", sorted(SCORES))
    def test_grid_lottery_tied_with_a_band_end_does_not_separate(self, example1, score):
        # The best and worst constant menus are point bands at the grid's two
        # ends.  A lottery equal to either end separates nothing, so the
        # steps=1 grid fires no pair; the steps=2 midpoint separates best
        # from worst, and only in that order.
        inst = example1.instance
        coll = example1.collection("split")
        best = constant_menu(inst, Lottery.degenerate(inst.best_prize()))
        worst = constant_menu(inst, Lottery.degenerate(inst.worst_prize()))
        value_of = SCORES[score](
            partial(rationalized_value, coll=coll, policy=AlphaPolicy.cautious(), inst=inst)
        )
        comparator = HmlComparator(inst, coll)
        separated = ("pass", None) if score == "correct" else ("fail", (best, worst))
        for steps, expected in ((1, ("vacuous", None, 0)), (2, (*separated, 1))):
            grid = utility_grid_lotteries(inst, steps=steps)
            check = check_consistency(value_of, comparator, [worst, best], grid)
            strict = check.robust_strict_consistency
            assert (strict.status, strict.witness, strict.antecedents) == expected
            assert strict.tuples_checked == 2

    def test_lottery_consistency_always_passes(self, example1, split_collection):
        inst = example1.instance
        comparator = HmlComparator(inst, split_collection)
        grid = utility_grid_lotteries(inst, steps=6)
        value_of = partial(
            rationalized_value, coll=split_collection, policy=AlphaPolicy.cautious(), inst=inst
        )
        report = check_consistency(value_of, comparator, [example1.menu("gh")], grid)
        assert report.lottery_consistency.status == "pass"

    def test_separated_bands_force_strict_order(self, two_state_instance):
        inst = two_state_instance
        coll = random_collection(random.Random(4), inst)
        high = menu_of(inst, (3, 3), (3, 2))
        low = menu_of(inst, (1, 0), (0, 1))
        grid = utility_grid_lotteries(inst, steps=6)
        comparator = HmlComparator(inst, coll)
        value_of = partial(
            rationalized_value, coll=coll, policy=AlphaPolicy.optimistic(), inst=inst
        )
        report = check_consistency(value_of, comparator, [high, low], grid)
        assert report.robust_strict_consistency.status == "pass"
        assert report.robust_strict_consistency.antecedents >= 1

    def test_overlapping_bands_are_vacuous(self, example1, split_collection):
        inst = example1.instance
        comparator = HmlComparator(inst, split_collection)
        grid = utility_grid_lotteries(inst, steps=4)
        value_of = partial(
            rationalized_value, coll=split_collection, policy=AlphaPolicy.cautious(), inst=inst
        )
        report = check_consistency(
            value_of, comparator, [example1.menu("f"), example1.menu("gh")], grid
        )
        # The safe act sits inside the risky pair's band: no grid lottery
        # separates them robustly.
        assert report.robust_strict_consistency.status == "vacuous"


def reference_band(F: Menu, coll: Collection, inst) -> ScenarioBand:
    """Both aggregates from the reference benefit, one call per (member, generator)."""
    rows = [[ref.benefit(F, gen, inst) for gen in member] for member in coll]
    return ScenarioBand(maxmin=max(map(min, rows)), minmax=min(map(max, rows)))


@st.composite
def shared_generator_corpora(draw):
    """An instance, a collection whose members draw their generators from one small
    pool (so members share them), and a corpus holding a repeated menu and a menu
    equal to another but built from distinct objects."""
    inst = draw(instances())
    pool = draw(st.lists(structures(inst), min_size=1, max_size=4))
    members = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=3),
                            min_size=1, max_size=4))
    coll = Collection(tuple(CredalSet(tuple(member)) for member in members))
    drawn = draw(st.lists(menus(inst), min_size=1, max_size=4))
    corpus = drawn + [drawn[0], twin_menu(drawn[-1])]
    return inst, coll, draw(st.permutations(corpus))


class TestCorpusBands:
    """`rank_menus` decides every band in one pass over the corpus; each must be
    the reference band and every entry the one per-menu `scenario_band` calls give."""

    @given(data=shared_generator_corpora(), prefill=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_corpus_bands_equal_per_menu_bands(self, data, prefill):
        inst, coll, corpus = data
        names = [f"m{i}" for i in range(len(corpus))]
        # The first *prefill* menus' benefits are in the memo before the ranking.
        for menu in corpus[:prefill]:
            scenario_band(menu, coll, inst)
        for policy in (AlphaPolicy.cautious(), AlphaPolicy.optimistic(),
                       AlphaPolicy.constant(Fraction(1, 3))):
            entries = rank_menus(corpus, coll, policy, inst, names=names)
            fresh = twin_instance(inst)
            bands = {name: scenario_band(menu, coll, fresh) for name, menu in zip(names, corpus)}
            values = {name: policy.blend(menu, bands[name]) for name, menu in zip(names, corpus)}
            expected = sorted(
                (
                    RankEntry(name, menu, values[name], bands[name],
                              1 + sum(other > values[name] for other in values.values()))
                    for name, menu in zip(names, corpus)
                ),
                key=lambda entry: (-entry.value, entry.name),
            )
            assert entries == expected
            for entry in entries:
                assert entry.band == reference_band(entry.menu, coll, inst)


class TestBandProperties:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_value_stays_inside_band(self, data):
        inst = data.draw(instances())
        coll = data.draw(collections(inst))
        F = data.draw(menus(inst))
        band = scenario_band(F, coll, inst)
        for policy in (
            AlphaPolicy.cautious(),
            AlphaPolicy.optimistic(),
            AlphaPolicy.constant(Fraction(1, 2)),
        ):
            value = rationalized_value(F, coll, policy, inst)
            assert band.low <= value <= band.high

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agreement_with_utility_on_constants(self, data):
        inst = data.draw(instances())
        coll = data.draw(collections(inst))
        value = Fraction(data.draw(st.integers(0, 4)), 2)
        lo, hi = inst.utility_range()
        if not lo <= value <= hi:
            value = lo
        x = utility_lottery(inst, value)
        menu = constant_menu(inst, x)
        for policy in (AlphaPolicy.cautious(), AlphaPolicy.optimistic()):
            assert rationalized_value(menu, coll, policy, inst) == inst.lottery_utility(x)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_robust_strict_is_asymmetric_and_refines_hml(self, data):
        bundle = data.draw(scenarios())
        F, G = bundle.menus
        inst, coll = bundle.inst, bundle.collection
        if robust_strict(F, G, coll, inst):
            assert not robust_strict(G, F, coll, inst)
            assert HmlComparator(inst, coll).compare(F, G) is Verdict.STRICT_BETTER

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_sandwich_forces_strict_value_order(self, data):
        bundle = data.draw(scenarios())
        F, G = bundle.menus
        inst, coll = bundle.inst, bundle.collection
        grid = utility_grid_lotteries(inst, steps=4)
        for x in grid:
            xm = constant_menu(inst, x)
            if robust_strict(F, xm, coll, inst) and robust_strict(xm, G, coll, inst):
                for policy in (
                    AlphaPolicy.cautious(),
                    AlphaPolicy.optimistic(),
                    AlphaPolicy.constant(Fraction(1, 2)),
                ):
                    assert rationalized_value(F, coll, policy, inst) > rationalized_value(
                        G, coll, policy, inst
                    )
                break
