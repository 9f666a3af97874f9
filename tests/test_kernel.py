"""The memoized evaluation kernel against the plain reference definitions.

`menulearn.evaluation` keeps its memos on the `Instance`; these tests check
that it agrees exactly with `reference_evaluation`, that malformed acts
raise typed errors, and that the memos are freed with their instance.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_evaluation as ref
from menulearn import (
    Act,
    DimensionMismatchError,
    InfoStructure,
    Lottery,
    Menu,
    Posterior,
    ValidationError,
    act_value,
    benefit_of_information,
    combine_structures,
    cross_audit,
    dominates,
    mean_posterior,
    mix_lotteries,
    mix_menus,
    randomize,
    support_value,
)
from menulearn.audit import random_instance

from conftest import (
    instances,
    lotteries,
    menus,
    structures,
    twin_instance,
    twin_menu,
    twin_structure,
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


class TestMixturesAgainstReference:
    """The mixtures list weighted pairs; the reference accumulates them in a dict."""

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


class TestTypedErrors:
    def test_posterior_on_a_state_the_act_lacks(self, two_state_instance):
        partial = Act({"w1": Lottery.degenerate("win")})
        pi = InfoStructure.point_mass(Posterior({"w1": Fraction(1, 2), "w2": Fraction(1, 2)}))
        with pytest.raises(DimensionMismatchError):
            benefit_of_information(Menu((partial,)), pi, two_state_instance)
        with pytest.raises(DimensionMismatchError):
            act_value(partial, Posterior.degenerate("w2"), two_state_instance)

    def test_dominance_needs_total_acts(self, two_state_instance):
        inst = two_state_instance
        total = Menu((Act({"w1": Lottery.degenerate("win"), "w2": Lottery.degenerate("win")}),))
        partial = Menu((Act({"w2": Lottery.degenerate("lose")}),))
        with pytest.raises(DimensionMismatchError):
            dominates(total, partial, inst)
        with pytest.raises(DimensionMismatchError):
            dominates(partial, total, inst, strict=True)

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
