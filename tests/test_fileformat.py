"""Instance documents: parsing, validation errors, round trips."""

import json
import random
from fractions import Fraction

import pytest

from menulearn import (
    Collection,
    CredalSet,
    ParseError,
    UnknownNameError,
    ValidationError,
    Workspace,
    dump_document,
    dumps,
    load_document,
    loads,
)
from menulearn.audit import random_instance, random_menu, random_structure
from menulearn.fileformat import parse_fraction


MINIMAL = {
    "states": ["w1"],
    "prizes": ["a", "b"],
    "utility": {"a": "1", "b": "0"},
}


def doc(**overrides):
    data = {key: json.loads(json.dumps(value)) for key, value in MINIMAL.items()}
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal_document(self):
        ws = load_document(doc())
        assert ws.instance.states == ("w1",)
        assert ws.instance.utility_of("a") == 1

    def test_malformed_rational(self):
        with pytest.raises(ParseError, match="malformed rational"):
            load_document(doc(utility={"a": "1/0", "b": "0"}))

    @pytest.mark.parametrize(
        "text,value",
        [("3", 3), ("-2", -2), ("+7", 7), ("2/3", Fraction(2, 3)), ("-06/8", Fraction(-3, 4)),
         ("+1/2", Fraction(1, 2)), ("0.25", Fraction(1, 4)), ("-1.50", Fraction(-3, 2)),
         ("007", 7)],
    )
    def test_rational_grammar(self, text, value):
        assert parse_fraction(text, "x") == value
        assert type(parse_fraction(text, "x")) is Fraction

    @pytest.mark.parametrize(
        "text",
        ["1e3", "1E3", " 1/2", "1/2 ", "1_000", "٣/4", "3/٤", "１", "²", ".5", "1.", "1/",
         "/2", "", "+", "-", "+-1", "1/-2", "1.5/2", "1/2.5", "0x10", "inf", "nan", "1/2/3"],
    )
    def test_strings_outside_the_grammar_are_malformed(self, text):
        with pytest.raises(ParseError) as info:
            parse_fraction(text, "utility.a")
        assert str(info.value) == (
            f"utility.a: malformed rational {text!r} (Invalid literal for Fraction: {text!r})"
        )

    @pytest.mark.parametrize("text,numerator", [("1/0", 1), ("-3/00", -3), ("-0/0", 0)])
    def test_zero_denominator_keeps_its_message(self, text, numerator):
        with pytest.raises(ParseError) as info:
            parse_fraction(text, "w")
        assert str(info.value) == f"w: malformed rational {text!r} (Fraction({numerator}, 0))"

    def test_malformed_entry_is_located_at_its_label(self):
        bad = doc(menus={"m": [{"w1": {"a": "1/2", "b": "1/2"}}, {"w1": {"a": "1/2", "b": "½"}}]})
        with pytest.raises(
            ParseError, match=r"^menus\.m\[1\]\.w1\.b: malformed rational '½' \(Invalid literal"
        ):
            load_document(bad)

    @pytest.mark.parametrize("raw", [True, 1.0, None, ["1"], {"1": 1}])
    def test_non_string_rationals_are_rejected_even_after_the_same_value_as_text(self, raw):
        # The document has already read "1"; a value that equals it is still no string.
        bad = doc(menus={"m": [{"w1": {"a": "1"}}, {"w1": {"a": raw}}]})
        with pytest.raises(ParseError) as info:
            load_document(bad)
        assert str(info.value) == (
            f"menus.m[1].w1.a: expected a rational string like '3/4', got {raw!r}"
        )

    def test_json_integers_are_rationals(self):
        ws = load_document(doc(utility={"a": 2, "b": "0"}, menus={"m": [{"w1": {"a": 1}}]}))
        assert ws.instance.utility_of("a") == 2
        assert ws.menu("m").acts[0].lottery("w1").probs == (("a", Fraction(1)),)

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            load_document(doc(utility={"a": 0.5, "b": "0"}))

    def test_missing_section(self):
        bad = doc()
        del bad["prizes"]
        with pytest.raises(ParseError, match="missing the required section"):
            load_document(bad)

    def test_act_must_cover_all_states(self):
        bad = doc(
            states=["w1", "w2"],
            menus={"m": [{"w1": {"a": "1"}}]},
        )
        with pytest.raises(ParseError, match="missing states"):
            load_document(bad)

    def test_unknown_prize_in_lottery(self):
        bad = doc(menus={"m": [{"w1": {"zzz": "1"}}]})
        with pytest.raises(ParseError, match="unknown prizes"):
            load_document(bad)

    def test_unknown_prize_is_located_at_its_act(self):
        bad = doc(menus={"m": [{"w1": {"a": "1"}}, {"w1": {"zzz": "1"}}]})
        with pytest.raises(ParseError, match=r"^menus\.m\[1\]: lottery over unknown prizes"):
            load_document(bad)

    def test_zero_probability_on_an_unknown_prize_is_rejected_at_its_act(self):
        bad = doc(menus={"m": [{"w1": {"a": "1"}}, {"w1": {"zzz": "0", "a": "1"}}]})
        with pytest.raises(
            ParseError, match=r"^menus\.m\[1\]: lottery over unknown prizes \['zzz'\]$"
        ):
            load_document(bad)
        # States are still checked before prizes.
        bad = doc(menus={"m": [{"w1": {"zzz": "0", "a": "1"}, "w9": {"a": "1"}}]})
        with pytest.raises(ParseError, match=r"^menus\.m\[0\]: unknown states \['w9'\]$"):
            load_document(bad)

    def test_zero_weight_on_an_unknown_state_is_still_rejected(self):
        bad = doc(info_structures={"pi": [{"posterior": {"w1": "1", "nope": "0"}, "weight": "1"}]})
        with pytest.raises(ParseError, match=r"pi\[0\]: posterior over unknown states"):
            load_document(bad)

    def test_empty_act_rejected(self):
        with pytest.raises(ParseError, match=r"^menus\.m\[0\]: "):
            load_document(doc(menus={"m": [{}]}))

    def test_posterior_over_unknown_state(self):
        bad = doc(info_structures={"pi": [{"posterior": {"nope": "1"}, "weight": "1"}]})
        with pytest.raises(ParseError, match="unknown states"):
            load_document(bad)

    def test_credal_set_requires_known_structures(self):
        bad = doc(credal_sets={"c": ["ghost"]})
        with pytest.raises(ParseError, match="unknown information structure"):
            load_document(bad)

    def test_collection_accepts_names_and_inline_members(self, example1):
        data = dump_document(example1)
        ws = load_document(data)
        assert set(ws.collections) == {"split", "hull"}
        assert len(ws.collection("split")) == 2

    def test_constant_utility_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid instance"):
            load_document(doc(utility={"a": "2", "b": "2"}))

    def test_invalid_json_text(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            loads("{not json")


class TestRoundTrip:
    def test_examples_round_trip(self, example1, example2):
        for workspace in (example1, example2):
            reloaded = load_document(dump_document(workspace))
            assert reloaded.instance == workspace.instance
            assert reloaded.menus == workspace.menus
            assert reloaded.info_structures == workspace.info_structures
            assert reloaded.credal_sets == workspace.credal_sets
            assert reloaded.collections == workspace.collections

    def test_serialized_rationals_are_strings(self, example1):
        data = dump_document(example1)
        assert data["utility"]["win"] == "3"
        text = json.dumps(data)
        assert "0.5" not in text  # no decimal leakage anywhere

    def test_generators_without_a_name_are_not_dumped(self):
        # A document names every generator, so one missing from the
        # structures table would be written as a name that does not load.
        inst = random_instance(random.Random(0))
        pi = random_structure(random.Random(1), inst)
        for tables, owner in (
            ({"credal_sets": {"C": CredalSet((pi,))}}, "credal set 'C'"),
            ({"collections": {"K": Collection((CredalSet((pi,)),))}}, "collection 'K'"),
        ):
            with pytest.raises(ValidationError, match=f"^cannot dump {owner}: "):
                dump_document(Workspace(instance=inst, **tables))

    def test_named_generators_round_trip(self):
        inst = random_instance(random.Random(0))
        rng = random.Random(1)
        pi, rho = random_structure(rng, inst), random_structure(rng, inst)
        both = CredalSet((pi, rho))
        workspace = Workspace(
            instance=inst,
            info_structures={"pi": pi, "rho": rho},
            credal_sets={"C": both},
            collections={"K": Collection((both, CredalSet((rho,))))},
        )
        reloaded = loads(dumps(workspace))
        assert reloaded.info_structures == workspace.info_structures
        assert reloaded.credal_sets == workspace.credal_sets
        assert reloaded.collections == workspace.collections

    def test_lookup_errors(self, example1):
        with pytest.raises(UnknownNameError):
            example1.menu("missing")
        with pytest.raises(UnknownNameError):
            example1.collection("missing")


def random_document(seed: int, menus: int = 60) -> str:
    """A document shaped like the rationalize benchmark's: many small random
    menus and a few structures on a small random instance."""
    rng = random.Random(seed)
    inst = random_instance(rng)
    workspace = Workspace(
        instance=inst,
        menus={f"m{k:02d}": random_menu(rng, inst) for k in range(1, menus + 1)},
        info_structures={f"pi{k}": random_structure(rng, inst) for k in range(1, 4)},
    )
    return dumps(workspace)


def lotteries_of(workspace):
    return [lottery for menu in workspace.menus.values() for act in menu
            for _, lottery in act.outcomes]


class TestSharedLotteries:
    """Equal lottery objects of one document are built once and shared."""

    def test_json_true_after_1_is_rejected_at_its_act(self):
        # {"win": 1} and {"win": true} have equal items, but only all-string
        # lottery objects are looked up, so the second is parsed and rejected.
        bad = doc(prizes=["win", "lose"], utility={"win": "1", "lose": "0"},
                  menus={"m": [{"w1": {"win": 1, "lose": 0}}, {"w1": {"win": True, "lose": 0}}]})
        with pytest.raises(ParseError) as info:
            load_document(bad)
        assert str(info.value) == (
            "menus.m[1].w1.win: expected a rational string like '3/4', got True"
        )

    @pytest.mark.parametrize("source", ["example1", "example2", "random"])
    def test_equal_lotteries_are_one_object(self, request, source):
        if source == "random":
            workspace = loads(random_document(seed=5))
        else:
            workspace = request.getfixturevalue(source)
        lotteries = lotteries_of(workspace)
        held = {}
        for lottery in lotteries:
            assert held.setdefault(lottery, lottery) is lottery
        assert len(held) < len(lotteries)

    def test_each_load_builds_its_own_lotteries(self):
        text = random_document(seed=6)
        first, second = loads(text), loads(text)
        assert first.menus == second.menus
        assert {id(x) for x in lotteries_of(first)}.isdisjoint(map(id, lotteries_of(second)))
