"""Loaded documents against the public constructors.

The loader reads each rational string once as an integer pair and builds
lotteries and posteriors from integer numerators; these tests require every
object it builds to equal the one the public constructors build from
Fractions, whatever spelling of the rationals a document uses.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from menulearn import (
    Act,
    Collection,
    CredalSet,
    InfoStructure,
    Lottery,
    Posterior,
    Workspace,
    dump_document,
    dumps,
    load_document,
    loads,
)

from conftest import instances, menus, structures


@st.composite
def workspaces(draw):
    """A workspace with named menus and structures, credal sets over the structures,
    and collections of named and inline credal sets."""
    inst = draw(instances())
    menus_ = {f"m{i}": draw(menus(inst)) for i in range(draw(st.integers(1, 4)))}
    named = {f"pi{i}": draw(structures(inst)) for i in range(draw(st.integers(1, 3)))}

    def credal_set():
        picked = draw(st.lists(st.sampled_from(sorted(named)), min_size=1, max_size=3))
        return CredalSet(tuple(named[name] for name in picked))

    credal_sets = {f"C{i}": credal_set() for i in range(draw(st.integers(0, 2)))}
    pool = list(credal_sets.values())
    collections = {
        f"K{i}": Collection(tuple(
            draw(st.sampled_from(pool)) if pool and draw(st.booleans()) else credal_set()
            for _ in range(draw(st.integers(1, 3)))
        ))
        for i in range(draw(st.integers(0, 2)))
    }
    return Workspace(inst, menus_, named, credal_sets, collections)


def spellings(text: str) -> list:
    """Ways a document may write the rational *text* (as ``dumps`` writes it): reduced,
    unreduced, signed, as a finite decimal where one exists, and as a JSON integer."""
    value = Fraction(text)
    n, d = value.numerator, value.denominator
    forms = [text, f"{3 * n}/{3 * d}", f"+{n}/{d}", f"{n}/{d}"]
    if 10**6 * n % d == 0:
        digits = 10**6 * n // d
        forms.append(f"{digits // 10**6}.{digits % 10**6:06d}")
    if d == 1:
        forms.append(n)
    return forms


def respelled(draw, probabilities: dict, zero_labels) -> dict:
    """*probabilities* with each rational respelled, and zero entries added for some
    of *zero_labels* (labels the distribution does not name)."""
    out = {label: draw(st.sampled_from(spellings(text))) for label, text in probabilities.items()}
    for label in zero_labels:
        if label not in out and draw(st.booleans()):
            out[label] = draw(st.sampled_from(["0", "0/7", "-0", "0.0", 0]))
    return out


def from_fractions(cls, probabilities: dict):
    """The distribution the public constructor builds from the entries as Fractions."""
    return cls({label: Fraction(raw) for label, raw in probabilities.items()})


class TestLoadedValues:
    @given(workspace=workspaces())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, workspace):
        assert loads(dumps(workspace)) == workspace

    @given(workspace=workspaces(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_distribution_equals_the_public_constructor(self, workspace, data):
        inst = workspace.instance
        document = dump_document(workspace)
        for acts in document.get("menus", {}).values():
            for act in acts:
                for state, probabilities in act.items():
                    act[state] = respelled(data.draw, probabilities, inst.prizes)
        for support in document.get("info_structures", {}).values():
            for point in support:
                point["posterior"] = respelled(data.draw, point["posterior"], inst.states)
        loaded = load_document(document)
        assert loaded == workspace
        for name, acts in document.get("menus", {}).items():
            held = {act: act for act in loaded.menus[name]}
            for act_data in acts:
                expected = Act({state: from_fractions(Lottery, probabilities)
                                for state, probabilities in act_data.items()})
                act = held[expected]
                assert act.outcomes == expected.outcomes
                for (_, lottery), (_, built) in zip(act.outcomes, expected.outcomes):
                    assert lottery._form == built._form and lottery.probs == built.probs
        for name, support in document.get("info_structures", {}).items():
            expected = InfoStructure(tuple(
                (from_fractions(Posterior, point["posterior"]), Fraction(point["weight"]))
                for point in support
            ))
            assert loaded.info_structures[name] == expected
            for (posterior, _), (built, _) in zip(
                loaded.info_structures[name].support, expected.support
            ):
                assert posterior._form == built._form and posterior.probs == built.probs
