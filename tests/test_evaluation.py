"""Menu evaluation: benefits, mixtures, randomization, dominance."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from menulearn import (
    BadWeightError,
    InfoStructure,
    Menu,
    Posterior,
    act_value,
    benefit_of_information,
    constant_menu,
    dominates,
    mean_posterior,
    mix_acts,
    mix_lotteries,
    mix_menus,
    mix_structures,
    randomize,
    support_value,
)

from conftest import act_of, instances, menu_of, menus, structures, utility_lottery


def uniform(inst):
    n = len(inst.states)
    return Posterior({s: Fraction(1, n) for s in inst.states})


def garbled(pi: InfoStructure, i: int, j: int, states) -> InfoStructure:
    """*pi* with its i-th and j-th posteriors merged into their weighted mean."""
    (p, wp), (q, wq) = pi.support[i], pi.support[j]
    merged = Posterior({s: (wp * p.prob(s) + wq * q.prob(s)) / (wp + wq) for s in states})
    rest = [point for k, point in enumerate(pi.support) if k not in (i, j)]
    return InfoStructure(tuple(rest) + ((merged, wp + wq),))


class TestActValue:
    def test_paper_risky_act_at_uniform(self, two_state_instance):
        g = act_of(two_state_instance, 3, 0)
        p = Posterior({"w1": Fraction(1, 2), "w2": Fraction(1, 2)})
        assert act_value(g, p, two_state_instance) == Fraction(3, 2)

    def test_constant_act_ignores_posterior(self, two_state_instance):
        f = act_of(two_state_instance, 2, 2)
        for p in (Posterior.degenerate("w1"), Posterior({"w1": Fraction(1, 3), "w2": Fraction(2, 3)})):
            assert act_value(f, p, two_state_instance) == 2

    def test_hand_computed_value(self):
        # u-profile (2, 5) under (1/3, 2/3): 2/3 + 10/3 = 4.
        from menulearn import Instance

        inst = Instance(states=("w1", "w2"), prizes=("hi", "lo"), utility={"hi": 5, "lo": 0})
        f = act_of(inst, 2, 5)
        p = Posterior({"w1": Fraction(1, 3), "w2": Fraction(2, 3)})
        assert act_value(f, p, inst) == 4


class TestSupportValue:
    def test_risky_pair_at_point_mass(self, two_state_instance):
        gh = menu_of(two_state_instance, (3, 0), (0, 3))
        assert support_value(gh, Posterior.degenerate("w1"), two_state_instance) == 3

    def test_singleton_menu_equals_act_value(self, two_state_instance):
        f = act_of(two_state_instance, 2, 1)
        p = uniform(two_state_instance)
        assert support_value(Menu((f,)), p, two_state_instance) == act_value(
            f, p, two_state_instance
        )

    def test_enumeration_oracle(self, two_state_instance):
        # Three acts valued 2, 3/2, 3/2 at the uniform posterior; max is 2.
        menu = menu_of(two_state_instance, (2, 2), (3, 0), (0, 3))
        p = uniform(two_state_instance)
        values = sorted(act_value(f, p, two_state_instance) for f in menu)
        assert values == [Fraction(3, 2), Fraction(3, 2), Fraction(2)]
        assert support_value(menu, p, two_state_instance) == 2


class TestBenefitOfInformation:
    def test_informed_pair_beats_safe_act(self, example1):
        inst = example1.instance
        gh = example1.menu("gh")
        assert benefit_of_information(gh, example1.info_structure("pi"), inst) == 3

    def test_constant_menu_is_structure_independent(self, example1):
        inst = example1.instance
        f = example1.menu("f")
        for name in ("pi", "delta_p"):
            assert benefit_of_information(f, example1.info_structure(name), inst) == 2

    def test_uninformative_point_mass(self, example1):
        inst = example1.instance
        gh = example1.menu("gh")
        assert benefit_of_information(gh, example1.info_structure("delta_p"), inst) == Fraction(3, 2)


class TestMixMenus:
    def test_alpha_one_returns_left(self, two_state_instance):
        F = menu_of(two_state_instance, (3, 0))
        G = menu_of(two_state_instance, (0, 3))
        assert mix_menus(F, G, 1) == F
        assert mix_menus(F, G, 0) == G

    def test_product_of_two_by_two(self, two_state_instance):
        F = menu_of(two_state_instance, (3, 0), (0, 3))
        G = menu_of(two_state_instance, (3, 3), (1, 0))
        mixed = mix_menus(F, G, Fraction(1, 2))
        assert len(mixed) == 4

    def test_out_of_range_weight_rejected(self, two_state_instance):
        F = menu_of(two_state_instance, (1, 1))
        with pytest.raises(BadWeightError):
            mix_menus(F, F, 2)

    def test_act_and_lottery_mixers_check_their_weight(self, two_state_instance):
        f = act_of(two_state_instance, 1, 1)
        x = utility_lottery(two_state_instance, 1)
        for alpha in (2, -1, "3/2"):
            with pytest.raises(BadWeightError):
                mix_acts(f, f, alpha)
            with pytest.raises(BadWeightError):
                mix_lotteries(x, x, alpha)


class TestRandomize:
    def test_single_weight_is_identity(self, two_state_instance):
        F = menu_of(two_state_instance, (3, 0), (0, 3))
        assert randomize(F, [1]) == F

    def test_singleton_menu_is_fixed_point(self, two_state_instance):
        F = menu_of(two_state_instance, (2, 1))
        assert randomize(F, [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]) == F

    def test_even_split_of_risky_pair(self, example1):
        # The 2x2 self-mixture: both cross terms land on the same hedged act.
        gh = example1.menu("gh")
        inst = example1.instance
        spread = randomize(gh, [Fraction(1, 2), Fraction(1, 2)])
        assert gh.issubset(spread)
        assert len(spread) == 3
        cross = [act for act in spread if act not in gh]
        assert len(cross) == 1
        profile = [
            inst.lottery_utility(cross[0].lottery(state)) for state in inst.states
        ]
        assert profile == [Fraction(3, 2), Fraction(3, 2)]

    def test_bad_weights_rejected(self, two_state_instance):
        F = menu_of(two_state_instance, (1, 1))
        with pytest.raises(BadWeightError):
            randomize(F, [Fraction(1, 2)])
        with pytest.raises(BadWeightError):
            randomize(F, [])
        with pytest.raises(BadWeightError):
            randomize(F, [Fraction(3, 2), Fraction(-1, 2)])

    def test_matches_direct_product_enumeration(self):
        # Oracle: build every length-n act tuple and mix its lotteries
        # coordinate by coordinate, then compare menus.
        import itertools

        from menulearn import Act, Lottery
        from menulearn.audit import random_instance, random_menu

        def direct(F, betas):
            acts = []
            for combo in itertools.product(F.acts, repeat=len(betas)):
                outcome = {}
                for state in combo[0].states:
                    mix = {}
                    for beta, act in zip(betas, combo):
                        for prize, p in act.lottery(state).probs:
                            mix[prize] = mix.get(prize, Fraction(0)) + beta * p
                    outcome[state] = Lottery(mix)
                acts.append(Act(outcome))
            return Menu(tuple(acts))

        rng = random.Random(55)
        weight_lists = [
            [Fraction(1)],
            [Fraction(1, 2), Fraction(1, 2)],
            [Fraction(1, 3), Fraction(2, 3)],
            [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)],
            [Fraction(0), Fraction(1)],
            [Fraction(2, 5), Fraction(0), Fraction(3, 5)],
        ]
        for _ in range(40):
            inst = random_instance(rng)
            F = random_menu(rng, inst, max_acts=3)
            for betas in weight_lists:
                assert randomize(F, betas) == direct(F, betas)


class TestDominance:
    def test_superset_dominates(self, two_state_instance):
        F = menu_of(two_state_instance, (3, 0), (0, 3), (1, 1))
        G = menu_of(two_state_instance, (3, 0))
        assert dominates(F, G, two_state_instance)

    def test_shrunk_menu_strictly_dominated(self, two_state_instance):
        # Mixing toward a worse-than-everything outcome is strictly dominated.
        G = menu_of(two_state_instance, (3, 1), (1, 2))
        worst = constant_menu(two_state_instance, utility_lottery(two_state_instance, 0))
        shrunk = mix_menus(G, worst, Fraction(2, 3))
        assert dominates(G, shrunk, two_state_instance, strict=True)
        assert not dominates(shrunk, G, two_state_instance)

    def test_crossing_acts_do_not_dominate(self, two_state_instance):
        F = menu_of(two_state_instance, (3, 0))
        G = menu_of(two_state_instance, (0, 3))
        assert not dominates(F, G, two_state_instance)
        assert not dominates(G, F, two_state_instance)


class TestFunctionalIdentities:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_support_value_mixture_linearity(self, data):
        inst = data.draw(instances())
        F = data.draw(menus(inst))
        H = data.draw(menus(inst))
        p = data.draw(st.sampled_from([uniform(inst)] + [Posterior.degenerate(s) for s in inst.states]))
        alpha = Fraction(data.draw(st.integers(0, 6)), 6)
        mixed = mix_menus(F, H, alpha)
        assert support_value(mixed, p, inst) == alpha * support_value(
            F, p, inst
        ) + (1 - alpha) * support_value(H, p, inst)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_benefit_linear_in_structure(self, data):
        inst = data.draw(instances())
        F = data.draw(menus(inst))
        a = data.draw(structures(inst))
        b = data.draw(structures(inst))
        w = Fraction(data.draw(st.integers(0, 5)), 5)
        mixed = mix_structures(a, b, w)
        assert benefit_of_information(F, mixed, inst) == w * benefit_of_information(
            F, a, inst
        ) + (1 - w) * benefit_of_information(F, b, inst)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_benefit_monotone_in_menu_inclusion(self, data):
        inst = data.draw(instances())
        F = data.draw(menus(inst))
        G = Menu(F.acts[: data.draw(st.integers(1, len(F)))])
        pi = data.draw(structures(inst))
        assert benefit_of_information(F, pi, inst) >= benefit_of_information(G, pi, inst)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_benefit_invariant_under_randomization(self, data):
        inst = data.draw(instances())
        F = data.draw(menus(inst))
        pi = data.draw(structures(inst))
        betas = data.draw(
            st.sampled_from(
                [
                    (Fraction(1, 2), Fraction(1, 2)),
                    (Fraction(1, 3), Fraction(2, 3)),
                    (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
                ]
            )
        )
        assert benefit_of_information(randomize(F, betas), pi, inst) == benefit_of_information(
            F, pi, inst
        )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_support_value_convex_in_posterior(self, data):
        inst = data.draw(instances())
        F = data.draw(menus(inst))
        p = data.draw(st.sampled_from([uniform(inst)] + [Posterior.degenerate(s) for s in inst.states]))
        q = data.draw(st.sampled_from([uniform(inst)] + [Posterior.degenerate(s) for s in inst.states]))
        alpha = Fraction(data.draw(st.integers(0, 4)), 4)
        blended = Posterior(
            {
                s: alpha * p.prob(s) + (1 - alpha) * q.prob(s)
                for s in inst.states
                if alpha * p.prob(s) + (1 - alpha) * q.prob(s) != 0
            }
        )
        assert support_value(F, blended, inst) <= alpha * support_value(
            F, p, inst
        ) + (1 - alpha) * support_value(F, q, inst)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_dominance_implies_benefit_order(self, data):
        inst = data.draw(instances())
        F = data.draw(menus(inst))
        G = data.draw(menus(inst))
        pi = data.draw(structures(inst))
        if dominates(F, G, inst):
            assert benefit_of_information(F, pi, inst) >= benefit_of_information(G, pi, inst)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_garbling_never_raises_the_benefit(self, data):
        """Blackwell (1953): merging two posteriors into their mean loses information.

        No menu gains from the coarser structure, and a singleton menu, whose
        value depends only on the prior, is indifferent to it.
        """
        inst = data.draw(instances())
        pi = data.draw(structures(inst))
        assume(len(pi.support) >= 2)
        i, j = data.draw(
            st.lists(st.integers(0, len(pi.support) - 1), min_size=2, max_size=2, unique=True)
        )
        coarse = garbled(pi, i, j, inst.states)
        assert mean_posterior(coarse) == mean_posterior(pi)
        F = data.draw(menus(inst))
        assert benefit_of_information(F, coarse, inst) <= benefit_of_information(F, pi, inst)
        single = Menu(F.acts[:1])
        assert benefit_of_information(single, coarse, inst) == benefit_of_information(
            single, pi, inst
        )
