"""Domain types: validation, canonicalization, and structural equality."""

import copy
import dataclasses
import json
import pickle
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menulearn import (
    Act,
    AlphaPolicy,
    BadProbabilityError,
    BadWeightError,
    Collection,
    ConstantUtilityError,
    CredalSet,
    DimensionMismatchError,
    EmptyStateSpaceError,
    InfoStructure,
    Instance,
    Lottery,
    Menu,
    ParseError,
    Posterior,
    ValidationError,
    Verdict,
    combine_structures,
    constant_act,
    loads,
    mean_posterior,
    mix_lotteries,
    mix_structures,
    validate_instance,
)
from menulearn.core import as_fraction, unit_weight, validate_act, validate_posterior

from conftest import DATA_DIR, instances, lotteries, posteriors, structures


class TestInstanceValidation:
    def test_minimal_valid_instance(self):
        inst = Instance(states=("w1", "w2"), prizes=("a", "b"), utility={"a": 1, "b": 0})
        validate_instance(inst)  # no error

    def test_constant_utility_rejected(self):
        with pytest.raises(ConstantUtilityError):
            Instance(states=("w1",), prizes=("a", "b"), utility={"a": 5, "b": 5})

    def test_single_prize_rejected(self):
        with pytest.raises(ConstantUtilityError):
            Instance(states=("w1",), prizes=("a",), utility={"a": 5})

    def test_empty_state_space_rejected(self):
        with pytest.raises(EmptyStateSpaceError):
            Instance(states=(), prizes=("a", "b"), utility={"a": 1, "b": 0})

    def test_bad_posterior_sum_rejected(self):
        with pytest.raises(BadProbabilityError):
            Posterior({"w1": Fraction(3, 4), "w2": Fraction(1, 2)})

    def test_negative_probability_rejected(self):
        with pytest.raises(BadProbabilityError):
            Lottery({"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_missing_utility_rejected(self):
        with pytest.raises(ValidationError):
            Instance(states=("w1",), prizes=("a", "b"), utility={"a": 1})

    def test_utility_naming_a_prize_twice_rejected(self):
        # Read pair by pair, "b" would be worth 1 to `utility_of` and 2 to
        # `lottery_utility`.
        with pytest.raises(ValidationError, match="^duplicate prize labels in utility$"):
            Instance(states=("s",), prizes=("a", "b"), utility=[("a", 0), ("b", 1), ("b", 2)])

    @pytest.mark.parametrize("utility", ["ab", [1, 2], [("a", 0, 1)], 5])
    def test_utility_that_is_not_pairs_is_named(self, utility):
        with pytest.raises(ValidationError, match="^utility must be a prize mapping or pairs"):
            Instance(states=("s",), prizes=("a", "b"), utility=utility)

    def test_float_probability_rejected(self):
        with pytest.raises(TypeError):
            Lottery({"a": 0.5, "b": 0.5})


class TestConstantAct:
    def test_degenerate_lottery(self, two_state_instance):
        x = Lottery.degenerate("win")
        act = constant_act(two_state_instance, x)
        assert act.lottery("w1") == x
        assert act.lottery("w2") == x

    def test_one_state_instance(self):
        inst = Instance(states=("only",), prizes=("a", "b"), utility={"a": 1, "b": 0})
        act = constant_act(inst, Lottery.degenerate("a"))
        assert act.states == ("only",)

    def test_mixed_lottery(self, two_state_instance):
        x = Lottery({"win": Fraction(1, 2), "lose": Fraction(1, 2)})
        act = constant_act(two_state_instance, x)
        assert all(lottery == x for _, lottery in act.outcomes)

    def test_unknown_prize_rejected(self, two_state_instance):
        with pytest.raises(ValidationError):
            constant_act(two_state_instance, Lottery.degenerate("other"))


class TestMeanPosterior:
    def test_two_point_masses_average_to_uniform(self):
        pi = InfoStructure(
            (
                (Posterior.degenerate("w1"), Fraction(1, 2)),
                (Posterior.degenerate("w2"), Fraction(1, 2)),
            )
        )
        assert mean_posterior(pi) == Posterior({"w1": Fraction(1, 2), "w2": Fraction(1, 2)})

    def test_point_mass_returns_its_posterior(self):
        p = Posterior({"w1": Fraction(1, 3), "w2": Fraction(2, 3)})
        assert mean_posterior(InfoStructure.point_mass(p)) == p

    def test_hand_computed_convex_combination(self):
        # 1/3 * (1/4, 3/4) + 2/3 * (1, 0), each coordinate checked by hand:
        # w1: 1/12 + 8/12 = 3/4 and w2: 3/12 + 0 = 1/4.
        pi = InfoStructure(
            (
                (Posterior({"w1": Fraction(1, 4), "w2": Fraction(3, 4)}), Fraction(1, 3)),
                (Posterior({"w1": 1}), Fraction(2, 3)),
            )
        )
        assert mean_posterior(pi) == Posterior({"w1": Fraction(3, 4), "w2": Fraction(1, 4)})


class TestCanonicalForms:
    def test_lottery_drops_zero_entries(self):
        assert Lottery({"a": 1, "b": 0}) == Lottery({"a": 1})

    def test_posterior_order_insensitive(self):
        a = Posterior({"w1": Fraction(1, 3), "w2": Fraction(2, 3)})
        b = Posterior({"w2": Fraction(2, 3), "w1": Fraction(1, 3)})
        assert a == b and hash(a) == hash(b)

    def test_menu_deduplicates_acts(self):
        act = Act({"w1": Lottery.degenerate("a")})
        menu = Menu((act, act))
        assert len(menu) == 1

    def test_menu_set_insensitive(self):
        f = Act({"w1": Lottery.degenerate("a")})
        g = Act({"w1": Lottery.degenerate("b")})
        assert Menu((f, g)) == Menu((g, f))

    def test_empty_menu_rejected(self):
        with pytest.raises(ValidationError):
            Menu(())

    def test_structure_merges_duplicate_posteriors(self):
        p = Posterior.degenerate("w1")
        q = Posterior.degenerate("w2")
        merged = InfoStructure(((p, Fraction(1, 4)), (p, Fraction(1, 4)), (q, Fraction(1, 2))))
        assert merged == InfoStructure(((p, Fraction(1, 2)), (q, Fraction(1, 2))))
        assert len(merged.support) == 2

    def test_structure_weights_must_sum_to_one(self):
        with pytest.raises(BadProbabilityError):
            InfoStructure(((Posterior.degenerate("w1"), Fraction(1, 2)),))

    def test_repeated_labels_are_summed(self):
        half = Fraction(1, 2)
        assert Lottery([("a", half), ("a", half)]) == Lottery.degenerate("a")
        assert Posterior([("w1", half), ("w2", 0), ("w1", half)]) == Posterior.degenerate("w1")

    def test_negative_entry_is_rejected_before_merging(self):
        p = Posterior.degenerate("w1")
        with pytest.raises(BadProbabilityError):
            InfoStructure(((p, Fraction(-1, 4)), (p, Fraction(5, 4))))
        with pytest.raises(BadProbabilityError):
            Lottery([("a", Fraction(-1, 4)), ("a", Fraction(5, 4))])

    @pytest.mark.parametrize(
        "build,message",
        [
            (
                lambda: Lottery({"a": Fraction(1, 2)}),
                "prize probabilities sum to 1/2, expected exactly 1",
            ),
            (lambda: Posterior({"w1": 2}), "state probabilities sum to 2, expected exactly 1"),
            (
                lambda: InfoStructure(((Posterior.degenerate("w1"), Fraction(1, 3)),)),
                "information-structure weights sum to 1/3, expected exactly 1",
            ),
        ],
    )
    def test_sum_messages(self, build, message):
        with pytest.raises(BadProbabilityError) as caught:
            build()
        assert str(caught.value) == message

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_measure_rebuilt_from_split_shuffled_pairs_is_the_same_value(self, data, seed):
        inst = data.draw(instances())
        rng = random.Random(seed)
        for value, pairs_of, build in (
            (data.draw(lotteries(inst)), lambda v: v.probs, Lottery),
            (data.draw(posteriors(inst)), lambda v: v.probs, Posterior),
            (data.draw(structures(inst)), lambda v: v.support, InfoStructure),
        ):
            pieces = []
            for label, mass in pairs_of(value):
                cut = mass * Fraction(rng.randint(0, 4), 4)
                pieces += [(label, cut), (label, mass - cut), (label, 0)]
            rng.shuffle(pieces)
            rebuilt = build(pieces)
            assert rebuilt == value and hash(rebuilt) == hash(value)
            assert repr(rebuilt) == repr(value)

    def test_credal_set_dedups_but_keeps_order(self):
        a = InfoStructure.point_mass(Posterior.degenerate("w2"))
        b = InfoStructure.point_mass(Posterior.degenerate("w1"))
        credal = CredalSet((a, b, a))
        assert credal.generators == (a, b)

    def test_empty_collection_rejected(self):
        with pytest.raises(ValidationError):
            Collection(())


def _one_of_each_value_type() -> list:
    lottery = Lottery({"a": Fraction(1, 3), "b": Fraction(2, 3)})
    posterior = Posterior({"w1": Fraction(1, 4), "w2": Fraction(3, 4)})
    act = Act({"w1": lottery, "w2": Lottery.degenerate("a")})
    structure = InfoStructure(
        ((posterior, Fraction(1, 2)), (Posterior.degenerate("w1"), Fraction(1, 2)))
    )
    credal = CredalSet((structure, InfoStructure.point_mass(posterior)))
    return [
        lottery,
        posterior,
        act,
        Menu((act, Act({"w1": lottery, "w2": lottery}))),
        structure,
        credal,
        Collection.of_singletons(credal),
        Instance(states=("w1", "w2"), prizes=("a", "b"), utility={"a": 1, "b": 0}),
    ]


class TestKeptHash:
    @pytest.mark.parametrize("value", _one_of_each_value_type(), ids=lambda v: type(v).__name__)
    def test_copies_agree_and_the_kept_hash_stays_private(self, value):
        shown = repr(value)
        kept = hash(value)
        assert repr(value) == shown and hash(value) == kept
        state = pickle.dumps(value)
        assert b"_hash" not in state
        for twin in (pickle.loads(state), dataclasses.replace(value), copy.deepcopy(value)):
            assert twin == value and hash(twin) == kept and repr(twin) == shown

    def test_replace_rehashes_the_new_value(self):
        lottery = Lottery({"a": 1})
        hash(lottery)
        other = dataclasses.replace(lottery, probs={"b": 1})
        assert other == Lottery({"b": 1}) and hash(other) == hash(Lottery({"b": 1}))


LABELS = ("a", "b", "c")


@st.composite
def built_distributions(draw, kind):
    """``(value, expected)``: a *kind* value built one of four ways, and the
    probabilities it must hold, as {label: nonzero Fraction}.

    The ways are the public constructor, the integer core `_of_numerators`
    over a total scaled by a drawn factor (so not reduced), `mix_lotteries`
    (lotteries only) and the constructor on split and shuffled pairs.  Few
    labels and small weights make equal values from different ways common.
    """
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    weights = st.lists(st.integers(0, 3), min_size=len(labels), max_size=len(labels))
    first = draw(weights.filter(any))
    expected = {label: Fraction(w, sum(first)) for label, w in zip(labels, first) if w}
    ways = ["constructor", "numerators", "split"] + ["mixed"] * (kind is Lottery)
    way = draw(st.sampled_from(ways))
    if way == "constructor":
        value = kind({label: Fraction(w, sum(first)) for label, w in zip(labels, first)})
    elif way == "numerators":
        scale = draw(st.integers(1, 4))
        value = kind._of_numerators(
            {label: w * scale for label, w in zip(labels, first)}, sum(first) * scale
        )
    elif way == "split":
        pieces = []
        for label, prob in expected.items():
            cut = prob * Fraction(draw(st.integers(0, 4)), 4)
            pieces += [(label, cut), (label, prob - cut), (label, 0)]
        value = kind(draw(st.permutations(pieces)))
    else:
        second = draw(weights.filter(any))
        alpha = Fraction(draw(st.integers(0, 4)), 4)
        value = mix_lotteries(
            Lottery(dict(zip(labels, [Fraction(w, sum(first)) for w in first]))),
            Lottery(dict(zip(labels, [Fraction(w, sum(second)) for w in second]))),
            alpha,
        )
        mixed = {
            label: alpha * Fraction(u, sum(first)) + (1 - alpha) * Fraction(v, sum(second))
            for label, u, v in zip(labels, first, second)
        }
        expected = {label: prob for label, prob in mixed.items() if prob}
    return value, expected


class TestIntegerForm:
    """A `Lottery` or `Posterior` compares and hashes on its integer form; these
    checks hold it to the Fraction definitions it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from([Lottery, Posterior]))
    def test_agrees_with_the_fraction_definitions(self, data, kind):
        (x, x_expected), (y, y_expected) = data.draw(
            st.tuples(built_distributions(kind), built_distributions(kind))
        )
        # Round trips of values whose `probs` has not been built yet.
        assert "probs" not in vars(x) and "probs" not in vars(y)
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert twin == x and hash(twin) == hash(x) and "probs" not in vars(twin)
            assert dict(twin.probs) == x_expected
        assert (x == y) is (x_expected == y_expected)
        assert (x != y) is (x_expected != y_expected)
        if x == y:
            assert hash(x) == hash(y)
        other_kind = Posterior if kind is Lottery else Lottery
        assert x != other_kind(x_expected) and not x == other_kind(x_expected)
        for value, expected in ((x, x_expected), (y, y_expected)):
            pairs = tuple(sorted(expected.items()))
            assert value.probs == pairs and value.support == tuple(sorted(expected))
            probs = [p for _, p in value.probs]
            assert all(type(p) is Fraction and gcd(p.numerator, p.denominator) == 1 for p in probs)
            assert repr(value) == f"{kind.__name__}(probs={pairs!r})"
            assert all(value.prob(label) == expected.get(label, 0) for label in LABELS)
        # And of values whose `probs` has been built.
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert twin == x and hash(twin) == hash(x) and twin.probs == x.probs


class TestVerdict:
    @pytest.mark.parametrize(
        "forward,backward,expected",
        [
            (True, True, Verdict.INDIFFERENT),
            (True, False, Verdict.STRICT_BETTER),
            (False, True, Verdict.STRICT_WORSE),
            (False, False, Verdict.INCOMPARABLE),
        ],
    )
    def test_from_directions(self, forward, backward, expected):
        assert Verdict.from_directions(forward, backward) is expected

    def test_flipped_swaps_strict_sides(self):
        assert Verdict.STRICT_BETTER.flipped() is Verdict.STRICT_WORSE
        assert Verdict.INDIFFERENT.flipped() is Verdict.INDIFFERENT
        assert Verdict.INCOMPARABLE.flipped() is Verdict.INCOMPARABLE


class TestStructureAlgebra:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_mean_posterior_is_affine(self, data):
        inst = data.draw(instances())
        a = data.draw(structures(inst))
        b = data.draw(structures(inst))
        alpha = Fraction(data.draw(st.integers(0, 4)), 4)
        mixed = mix_structures(a, b, alpha)
        expected = {
            state: alpha * mean_posterior(a).prob(state)
            + (1 - alpha) * mean_posterior(b).prob(state)
            for state in inst.states
        }
        got = mean_posterior(mixed)
        assert all(got.prob(s) == expected[s] for s in inst.states)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_distributions_sum_to_exactly_one(self, data):
        inst = data.draw(instances())
        structure = data.draw(structures(inst))
        assert sum(w for _, w in structure.support) == 1
        for posterior, _ in structure.support:
            assert sum(p for _, p in posterior.probs) == 1

    def test_combine_rejects_bad_weights(self):
        p = InfoStructure.point_mass(Posterior.degenerate("w1"))
        with pytest.raises(BadProbabilityError):
            combine_structures((p, p), (Fraction(1, 2), Fraction(1, 4)))


class TestInputRules:
    """Each input rule, stated once in `core`, with one exception type."""

    @pytest.mark.parametrize("raw", [0, 1, Fraction(1, 2), "1/3"])
    def test_unit_weight_accepts_the_closed_interval(self, raw):
        assert unit_weight(raw, "w") == Fraction(raw)

    @pytest.mark.parametrize("raw", [Fraction(-1, 2), Fraction(3, 2)])
    def test_unit_weight_rejects_the_outside(self, raw):
        with pytest.raises(BadWeightError, match=r"^w must lie in \[0, 1\], got"):
            unit_weight(raw, "w")

    def test_mix_structures_rejects_a_weight_outside_the_unit_interval(self):
        p = InfoStructure.point_mass(Posterior.degenerate("w1"))
        with pytest.raises(BadWeightError, match="mixture weight"):
            mix_structures(p, p, 2)

    def test_mix_lotteries_rejects_a_weight_outside_the_unit_interval(self):
        x, y = Lottery.degenerate("a"), Lottery.degenerate("b")
        with pytest.raises(BadWeightError, match="mixture weight"):
            mix_lotteries(x, y, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Lottery({"a": "x"}),
            lambda: mix_lotteries(Lottery.degenerate("a"), Lottery.degenerate("b"), "abc"),
            lambda: unit_weight("abc", "w"),
            lambda: AlphaPolicy.constant("1/0"),
        ],
        ids=["lottery", "mix_lotteries", "unit_weight", "alpha_policy"],
    )
    def test_malformed_rational_string_is_a_validation_error(self, build):
        with pytest.raises(ValidationError, match="^malformed rational '"):
            build()

    @pytest.mark.parametrize(
        "text",
        ["1e-1", " 1/2 ", "1_000", ".5", "\u0663/6"],
        ids=["exponent", "whitespace", "separator", "bare_point", "non_ascii_digit"],
    )
    def test_as_fraction_reads_only_the_document_grammar(self, text):
        # Each string is one class `Fraction(text)` accepts and documents reject.
        Fraction(text)
        with pytest.raises(ValidationError, match=r"^malformed rational '"):
            as_fraction(text)

    @pytest.mark.parametrize("text", ["1e3000000", "-1.5E-3000000"])
    def test_an_exponent_is_rejected_without_expanding_it(self, text):
        # `Fraction(text)` spends seconds building 10**3000000 for these.
        document = json.loads((DATA_DIR / "example1.json").read_text())
        document["menus"]["f"][0]["w1"] = {"win": text, "lose": "1/3"}
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"^malformed rational '"):
            as_fraction(text)
        with pytest.raises(ParseError) as info:
            loads(json.dumps(document))
        assert time.perf_counter() - start < 0.5
        assert str(info.value).endswith(
            f"malformed rational {text!r} (Invalid literal for Fraction: {text!r})"
        )

    def test_lottery_in_a_state_the_act_lacks(self):
        act = Act({"w1": Lottery.degenerate("x")})
        with pytest.raises(DimensionMismatchError, match=r"'w2' \(it covers \['w1'\]\)"):
            act.lottery("w2")

    def test_validate_act_checks_states_then_prizes(self, two_state_instance):
        win = Lottery.degenerate("win")
        validate_act(Act({"w1": win, "w2": win}), two_state_instance)
        cases = [
            (Act({"w1": win, "w3": Lottery.degenerate("zzz")}), r"^unknown states \['w3'\]"),
            (Act({"w1": Lottery.degenerate("zzz")}), r"^missing states \['w2'\]"),
            (Act({"w1": win, "w2": Lottery.degenerate("zzz")}), r"^lottery over unknown prizes"),
        ]
        for act, message in cases:
            with pytest.raises(ValidationError, match=message):
                validate_act(act, two_state_instance)

    def test_validate_posterior(self, two_state_instance):
        validate_posterior(Posterior({"w1": 1}), two_state_instance)
        for posterior in (Posterior({"w3": 1}), {"w1": 1, "w3": 0}):
            with pytest.raises(DimensionMismatchError, match=r"over unknown states \['w3'\]"):
                validate_posterior(posterior, two_state_instance)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Menu((1, 2)), "expected an Act, got 1"),
            (lambda: Menu((Lottery.degenerate("z"),)), "expected an Act, got Lottery("),
            (lambda: CredalSet((Posterior.degenerate("w1"),)), "expected an InfoStructure, got"),
            (lambda: Collection(("x",)), "expected a CredalSet, got 'x'"),
        ],
        ids=["menu_of_ints", "menu_of_a_lottery", "credal_set", "collection"],
    )
    def test_container_member_of_the_wrong_type(self, build, message):
        with pytest.raises(TypeError) as caught:
            build()
        assert str(caught.value).startswith(message)

    @pytest.mark.parametrize("kind", [Lottery, Posterior])
    @pytest.mark.parametrize(
        "numerators",
        [{"a": 4, "b": -1}, {"a": 1, "b": 1}, {"a": 1, 7: 2}, {}],
        ids=["negative", "short_total", "label_type", "empty"],
    )
    def test_integer_core_states_the_rule_as_the_public_constructor(self, kind, numerators):
        # `_of_numerators` decides on integers what `_measure` decides on
        # Fractions: the same error type and message for the same measure.
        total = 3
        with pytest.raises((TypeError, ValidationError)) as public:
            kind({label: Fraction(num, total) for label, num in numerators.items()})
        with pytest.raises((TypeError, ValidationError)) as core:
            kind._of_numerators(numerators, total)
        assert (type(core.value), str(core.value)) == (type(public.value), str(public.value))
