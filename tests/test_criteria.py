"""The four criteria: worked-example verdicts, reductions, and axial properties."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menulearn
import reference_criteria as ref
from menulearn import (
    AuditConfig,
    BadWeightError,
    BmlComparator,
    Collection,
    CredalSet,
    Criterion,
    HmlComparator,
    JmlComparator,
    Menu,
    SlComparator,
    Verdict,
    alpha_maxmin_collection,
    audit,
    benefit_gap,
    benefit_of_information,
    collection_maxmin_gap,
    combine_structures,
    dominates,
    generate_corpus,
    mix_menus,
)
from menulearn.audit import random_act, random_collection, random_credal_set, random_instance

from conftest import (
    collections,
    credal_sets,
    instances,
    menu_of,
    menus,
    scenarios,
    twin_collection,
    twin_credal_set,
    twin_instance,
    twin_menu,
    twin_structure,
)


def min_gap(F, G, credal, inst):
    """The program's worst-case gap over *credal*: one group holding every generator."""
    return collection_maxmin_gap(F, G, Collection.of_credal_set(credal), inst)


def max_gap(F, G, credal, inst):
    """The program's best-case gap over *credal*: one singleton group per generator."""
    return collection_maxmin_gap(F, G, Collection.of_singletons(credal), inst)


class TestCredalGaps:
    def test_example_min_and_max(self, example1):
        inst = example1.instance
        f, gh = example1.menu("f"), example1.menu("gh")
        both = example1.credal_set("both")
        assert min_gap(f, gh, both, inst) == -1
        assert max_gap(f, gh, both, inst) == Fraction(1, 2)

    def test_singleton_credal_set_gives_plain_gap(self, example1):
        inst = example1.instance
        f, gh = example1.menu("f"), example1.menu("gh")
        single = CredalSet.singleton(example1.info_structure("delta_p"))
        assert min_gap(f, gh, single, inst) == Fraction(1, 2)
        assert max_gap(f, gh, single, inst) == Fraction(1, 2)

    def test_redundant_midpoint_generator_changes_nothing(self, example1):
        inst = example1.instance
        f, gh = example1.menu("f"), example1.menu("gh")
        both = example1.credal_set("both")
        midpoint = combine_structures(both.generators, (Fraction(1, 2), Fraction(1, 2)))
        padded = CredalSet(both.generators + (midpoint,))
        for F, G in ((f, gh), (gh, f)):
            assert min_gap(F, G, padded, inst) == min_gap(F, G, both, inst)
            assert max_gap(F, G, padded, inst) == max_gap(F, G, both, inst)


class TestWorkedExampleVerdicts:
    def test_bml_incomparable_pair(self, example1):
        inst = example1.instance
        verdict = BmlComparator(inst, example1.credal_set("both")).compare(
            example1.menu("f"), example1.menu("gh")
        )
        assert verdict is Verdict.INCOMPARABLE

    def test_bml_reflexive(self, example1):
        inst = example1.instance
        gh = example1.menu("gh")
        assert BmlComparator(inst, example1.credal_set("both")).compare(gh, gh) is (
            Verdict.INDIFFERENT
        )

    def test_bml_strict_under_strict_dominance(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_instance(rng)
            credal = random_credal_set(rng, inst)
            best = menu_of(inst, tuple([inst.utility_range()[1]] * len(inst.states)))
            worst_value = inst.utility_range()[0]
            F = best
            G = mix_menus(
                F, menu_of(inst, tuple([worst_value] * len(inst.states))), Fraction(1, 2)
            )
            if not dominates(F, G, inst, strict=True):
                continue  # degenerate draw: F already contains the mixture
            assert BmlComparator(inst, credal).compare(F, G) is Verdict.STRICT_BETTER

    def test_jml_cycle_verdicts(self, example2):
        inst = example2.instance
        both = example2.credal_set("both")
        f, gh, fstar = example2.menu("f"), example2.menu("gh"), example2.menu("fstar")
        jml = JmlComparator(inst, both)
        assert jml.compare(fstar, gh) is Verdict.INDIFFERENT
        assert jml.compare(f, gh) is Verdict.INDIFFERENT
        assert jml.compare(fstar, f) is Verdict.STRICT_BETTER

    def test_jml_equals_bml_on_singleton_set(self, example1):
        inst = example1.instance
        single = CredalSet.singleton(example1.info_structure("pi"))
        jml, bml = JmlComparator(inst, single), BmlComparator(inst, single)
        for left, right in (("f", "gh"), ("gh", "f"), ("f", "f")):
            F, G = example1.menu(left), example1.menu(right)
            assert jml.compare(F, G) == bml.compare(F, G)

    def test_sl_flips_with_the_structure(self, example1):
        inst = example1.instance
        f, gh = example1.menu("f"), example1.menu("gh")
        at_delta_p = SlComparator(inst, example1.info_structure("delta_p"))
        at_pi = SlComparator(inst, example1.info_structure("pi"))
        assert at_delta_p.compare(f, gh) is Verdict.STRICT_BETTER
        assert at_pi.compare(f, gh) is Verdict.STRICT_WORSE
        assert at_pi.compare(f, f) is Verdict.INDIFFERENT


class TestHmlReductions:
    def test_single_member_collection_is_unanimity(self, example1):
        inst = example1.instance
        both = example1.credal_set("both")
        coll = Collection.of_credal_set(both)
        f, gh = example1.menu("f"), example1.menu("gh")
        hml, bml = HmlComparator(inst, coll), BmlComparator(inst, both)
        for F, G in ((f, gh), (gh, f), (f, f)):
            assert hml.compare(F, G) == bml.compare(F, G)

    def test_all_singleton_collection_is_veto(self, example2):
        inst = example2.instance
        both = example2.credal_set("both")
        coll = Collection.of_singletons(both)
        hml, jml = HmlComparator(inst, coll), JmlComparator(inst, both)
        menus_ = [example2.menu(n) for n in ("f", "gh", "fstar")]
        for F in menus_:
            for G in menus_:
                assert hml.compare(F, G) == jml.compare(F, G)

    def test_alpha_maxmin_matches_weighted_gap_sign(self, example1):
        inst = example1.instance
        both = example1.credal_set("both")
        f, gh = example1.menu("f"), example1.menu("gh")
        alpha = Fraction(1, 2)
        hml = HmlComparator(inst, alpha_maxmin_collection(both, alpha))
        for F, G in ((f, gh), (gh, f), (f, f), (gh, gh)):
            blended_forward = alpha * min_gap(F, G, both, inst) + (
                1 - alpha
            ) * max_gap(F, G, both, inst)
            blended_backward = alpha * min_gap(G, F, both, inst) + (
                1 - alpha
            ) * max_gap(G, F, both, inst)
            expected = Verdict.from_directions(blended_forward >= 0, blended_backward >= 0)
            assert hml.compare(F, G) is expected

    @given(
        data=st.data(),
        alpha=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_alpha_maxmin_value_is_the_exact_blend(self, data, alpha):
        """Its value is alpha * min-gap + (1 - alpha) * max-gap, with gaps from the kernel."""
        inst = data.draw(instances())
        credal = data.draw(credal_sets(inst))
        F = data.draw(menus(inst))
        G = data.draw(menus(inst))
        gaps = [
            benefit_of_information(F, pi, inst) - benefit_of_information(G, pi, inst)
            for pi in credal
        ]
        coll = alpha_maxmin_collection(credal, alpha)
        expected = alpha * min(gaps) + (1 - alpha) * max(gaps)
        assert collection_maxmin_gap(F, G, coll, inst) == expected

    def test_alpha_maxmin_rejects_a_weight_outside_the_unit_interval(self, example1):
        with pytest.raises(BadWeightError, match="must lie in"):
            alpha_maxmin_collection(example1.credal_set("both"), 2)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_reductions_on_random_scenarios(self, data):
        inst = data.draw(instances())
        credal = data.draw(credal_sets(inst))
        F = data.draw(menus(inst))
        G = data.draw(menus(inst))
        as_bml = HmlComparator(inst, Collection.of_credal_set(credal)).compare(F, G)
        assert as_bml == BmlComparator(inst, credal).compare(F, G)
        as_jml = HmlComparator(inst, Collection.of_singletons(credal)).compare(F, G)
        assert as_jml == JmlComparator(inst, credal).compare(F, G)


class TestCriterionShapes:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_jml_is_complete(self, data):
        bundle = data.draw(scenarios())
        F, G = bundle.menus
        jml = JmlComparator(bundle.inst, bundle.credal)
        assert jml.compare(F, G) is not Verdict.INCOMPARABLE

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_hml_is_reflexive(self, data):
        bundle = data.draw(scenarios(n_menus=1))
        (F,) = bundle.menus
        hml = HmlComparator(bundle.inst, bundle.collection)
        assert hml.compare(F, F) is Verdict.INDIFFERENT

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_verdicts_are_antisymmetric_pairs(self, data):
        bundle = data.draw(scenarios())
        F, G = bundle.menus
        hml = HmlComparator(bundle.inst, bundle.collection)
        forward = hml.compare(F, G)
        backward = hml.compare(G, F)
        assert backward is forward.flipped()


class TestSingletonReduction:
    def test_agreement_with_menu_criteria(self):
        rng = random.Random(11)
        agreements = 0
        while agreements < 100:
            inst = random_instance(rng)
            credal = random_credal_set(rng, inst)
            f, g = random_act(rng, inst), random_act(rng, inst)
            F, G = Menu((f,)), Menu((g,))
            assert ref.singleton_reduction(f, g, credal, "bml", inst) == BmlComparator(
                inst, credal
            ).compare(F, G)
            assert ref.singleton_reduction(f, g, credal, "jml", inst) == JmlComparator(
                inst, credal
            ).compare(F, G)
            agreements += 1

    def test_identical_acts_are_indifferent(self, example1):
        inst = example1.instance
        act = example1.menu("f").acts[0]
        both = example1.credal_set("both")
        assert ref.singleton_reduction(act, act, both, "bml", inst) is Verdict.INDIFFERENT

    def test_shared_mean_posterior_matches_static_comparison(self, example1):
        # Both generators average to the uniform prior, so on single acts the
        # whole credal set behaves like the point mass at that prior.
        inst = example1.instance
        both = example1.credal_set("both")
        delta_p = example1.info_structure("delta_p")
        f = example1.menu("f").acts[0]
        g = example1.menu("gh").acts[0]
        sl = SlComparator(inst, delta_p)
        for left, right in ((f, g), (g, f), (f, f)):
            expected = sl.compare(Menu((left,)), Menu((right,)))
            assert ref.singleton_reduction(left, right, both, "bml", inst) is expected
            assert ref.singleton_reduction(left, right, both, "jml", inst) is expected
        # The equivalence is a singleton-only fact: on a two-act menu the
        # same credal set disagrees with the implied-prior comparison.
        f_menu, gh_menu = example1.menu("f"), example1.menu("gh")
        assert BmlComparator(inst, both).compare(f_menu, gh_menu) != sl.compare(f_menu, gh_menu)

    def test_rejects_unknown_mode(self, example1):
        inst = example1.instance
        act = example1.menu("f").acts[0]
        with pytest.raises(ValueError):
            ref.singleton_reduction(act, act, example1.credal_set("both"), "sl", inst)


class TestAgainstReference:
    """One hierarchical rule over special collections against the four separate formulas."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_criteria_match_reference(self, data):
        inst = data.draw(instances())
        credal = data.draw(credal_sets(inst))
        coll = data.draw(collections(inst))
        pi = credal.generators[-1]
        drawn = [data.draw(menus(inst)) for _ in range(2)]
        candidates = drawn + [twin_menu(drawn[0])]
        assert candidates[-1] is not drawn[0] and candidates[-1] == drawn[0]
        # (name, parameter, an equal fresh parameter, constructor, the
        # collection the constructor builds)
        cases = [
            ("sl", pi, twin_structure(pi), SlComparator,
             Collection.of_credal_set(CredalSet.singleton(pi))),
            ("bml", credal, twin_credal_set(credal), BmlComparator,
             Collection.of_credal_set(credal)),
            ("jml", credal, twin_credal_set(credal), JmlComparator,
             Collection.of_singletons(credal)),
            ("hml", coll, twin_collection(coll), HmlComparator, coll),
        ]
        targets = (inst, twin_instance(inst))
        for F in candidates:
            for G in candidates:
                for target in targets:
                    assert benefit_gap(F, G, pi, target) == ref.benefit_gap(F, G, pi, inst)
                for name, param, twin, build, collection in cases:
                    ref_compare, ref_gap = ref.CRITERIA[name]
                    expected = ref_compare(F, G, inst, param)
                    expected_gap = ref_gap(F, G, param, inst)
                    for target in targets:
                        assert collection_maxmin_gap(F, G, collection, target) == expected_gap
                        for criterion in (
                            build(target, param),
                            build(target, twin),
                            Criterion(target, collection),
                        ):
                            assert criterion.compare(F, G) is expected
                            assert criterion.weakly_prefers(F, G) is (expected_gap >= 0)
                            assert criterion.strictly_prefers(F, G) is (
                                expected is Verdict.STRICT_BETTER
                            )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_held_criterion_matches_reference(self, data):
        # One criterion per case ranks every pair, twice over, so most rows
        # come from its row table; the twins are equal but distinct menus,
        # so they must find the rows of their originals.
        inst = data.draw(instances())
        credal = data.draw(credal_sets(inst))
        coll = data.draw(collections(inst))
        drawn = [data.draw(menus(inst)) for _ in range(3)]
        candidates = [(i, menu) for i, menu in enumerate(drawn)]
        candidates += [(i, twin_menu(menu)) for i, menu in enumerate(drawn)]
        pi = credal.generators[0]
        cases = [
            ("sl", pi, Collection.of_credal_set(CredalSet.singleton(pi))),
            ("bml", credal, Collection.of_credal_set(credal)),
            ("jml", credal, Collection.of_singletons(credal)),
            ("hml", coll, coll),
        ]
        for name, param, collection in cases:
            ref_compare, ref_gap = ref.CRITERIA[name]
            expected = {
                (i, j): (ref_compare(F, G, inst, param), ref_gap(F, G, param, inst) >= 0)
                for i, F in enumerate(drawn)
                for j, G in enumerate(drawn)
            }
            criterion = Criterion(inst, collection)
            for _ in range(2):
                for i, F in candidates:
                    for j, G in candidates:
                        verdict, weak = expected[i, j]
                        assert criterion.compare(F, G) is verdict
                        assert criterion.weakly_prefers(F, G) is weak
            assert len(criterion._rows) == len(set(drawn))

    def test_verdicts_are_ordered_and_per_criterion(self, example1):
        # SL at delta_p ranks f strictly above gh, so a verdict read from
        # the swapped pair would be wrong; BML on "both" leaves (f, gh)
        # unranked while JML ranks it, so rows or verdicts shared between
        # criteria would hand JML the BML verdict.
        inst = twin_instance(example1.instance)
        f, gh = example1.menu("f"), example1.menu("gh")
        sl = SlComparator(inst, example1.info_structure("delta_p"))
        for _ in range(2):
            for F, G in ((f, gh), (gh, f), (twin_menu(f), twin_menu(gh))):
                expected = ref.benefit_gap(F, G, example1.info_structure("delta_p"), inst) >= 0
                assert sl.weakly_prefers(F, G) is expected
        assert sl.weakly_prefers(f, gh) and not sl.weakly_prefers(gh, f)
        both = example1.credal_set("both")
        bml, jml = BmlComparator(inst, both), JmlComparator(inst, both)
        for first, second in ((bml, jml), (jml, bml)):
            for criterion in (first, second):
                for F, G in ((f, gh), (gh, f)):
                    kind = "bml" if criterion is bml else "jml"
                    expected = ref.CRITERIA[kind][1](F, G, both, inst) >= 0
                    assert criterion.weakly_prefers(F, G) is expected
        assert not bml.weakly_prefers(f, gh) and jml.weakly_prefers(f, gh)

    @pytest.mark.parametrize("seed", range(6))
    def test_weak_preference_is_the_relation_bit(self, seed):
        # The audit decides its axioms on `_relation`, over the corpus and
        # over the menus mixed from it, and the per-candidate consequents
        # and shrinks through `weakly_prefers`; the two must agree.
        rng = random.Random(seed)
        inst = random_instance(rng)
        credal = random_credal_set(rng, inst)
        corpus = generate_corpus(inst, AuditConfig(corpus_size=6, seed=seed))
        drawn = corpus + [twin_menu(corpus[-1])]
        for alpha in (Fraction(1, 3), Fraction(1, 2)):
            drawn += [mix_menus(F, G, alpha) for F in corpus[::2] for G in corpus[1::2]]
        for criterion in (
            BmlComparator(inst, credal),
            JmlComparator(inst, credal),
            HmlComparator(inst, random_collection(rng, inst)),
        ):
            relation = criterion._relation(drawn)
            assert [[bool(up >> j & 1) for j in range(len(drawn))] for up in relation] == [
                [criterion.weakly_prefers(F, G) for G in drawn] for F in drawn
            ]


class TestCopies:
    """A criterion pickles and copies as its value: its tables stay behind."""

    def test_pickle_and_deepcopy_drop_the_tables(self):
        rng = random.Random(6)
        inst = random_instance(rng)
        credal = random_credal_set(rng, inst)
        config = AuditConfig(corpus_size=6, seed=6)
        corpus = generate_corpus(inst, config)
        audited = BmlComparator(inst, credal)
        audit(audited, corpus, config)
        assert audited._rows
        assert inst._numerators and inst._benefits
        fresh = BmlComparator(twin_instance(inst), twin_credal_set(credal))
        assert len(pickle.dumps(audited)) == len(pickle.dumps(fresh))
        for copied in (pickle.loads(pickle.dumps(audited)), copy.deepcopy(audited)):
            assert copied == audited and hash(copied) == hash(audited)
            assert copied._rows == {}
            assert copied.instance._numerators == {} and copied.instance._benefits == {}
            for F in corpus:
                for G in corpus:
                    assert copied.compare(F, G) is audited.compare(F, G)
                    assert copied.weakly_prefers(F, G) is audited.weakly_prefers(F, G)


class TestPublicSurface:
    def test_constructors_build_one_criterion(self, example1):
        inst = example1.instance
        both = example1.credal_set("both")
        pi = example1.info_structure("pi")
        coll = example1.collection("split")
        assert SlComparator(inst, pi) == Criterion(
            inst, Collection.of_credal_set(CredalSet.singleton(pi))
        )
        assert BmlComparator(inst, both) == Criterion(inst, Collection.of_credal_set(both))
        assert JmlComparator(inst, both) == Criterion(inst, Collection.of_singletons(both))
        assert HmlComparator(inst, coll) == Criterion(inst, coll)
        for built in (
            SlComparator(inst, pi),
            BmlComparator(inst, both),
            JmlComparator(inst, both),
            HmlComparator(inst, coll),
        ):
            assert type(built) is Criterion

    def test_every_exported_name_resolves(self):
        missing = [name for name in menulearn.__all__ if not hasattr(menulearn, name)]
        assert missing == []
