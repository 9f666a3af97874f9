"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from menulearn import (
    Act,
    Collection,
    CredalSet,
    InfoStructure,
    Instance,
    Lottery,
    Menu,
    Posterior,
    load_path,
    mix_lotteries,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "menulearn" / "data"

# For `tests/mutants.py`: a planted fault only has to make a test fail, so
# its runs skip shrinking the failing example and leave the example database alone.
settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate], database=None
)


@pytest.fixture(scope="session")
def example1():
    return load_path(DATA_DIR / "example1.json")


@pytest.fixture(scope="session")
def example2():
    return load_path(DATA_DIR / "example2.json")


@pytest.fixture()
def two_state_instance():
    return Instance(states=("w1", "w2"), prizes=("win", "lose"), utility={"win": 3, "lose": 0})


# ---------------------------------------------------------------------------
# Deterministic construction helpers
# ---------------------------------------------------------------------------


def utility_lottery(inst: Instance, value) -> Lottery:
    """A lottery over the best/worst prizes with the given expected utility."""
    value = Fraction(value)
    lo, hi = inst.utility_range()
    assert lo <= value <= hi, f"utility {value} outside [{lo}, {hi}]"
    share = (value - lo) / (hi - lo)
    return mix_lotteries(
        Lottery.degenerate(inst.best_prize()), Lottery.degenerate(inst.worst_prize()), share
    )


def act_of(inst: Instance, *statewise_utilities) -> Act:
    """An act whose expected utility in state i is the i-th argument."""
    assert len(statewise_utilities) == len(inst.states)
    return Act(
        {
            state: utility_lottery(inst, value)
            for state, value in zip(inst.states, statewise_utilities)
        }
    )


def menu_of(inst: Instance, *rows) -> Menu:
    """A menu from per-act statewise utility rows."""
    return Menu(tuple(act_of(inst, *row) for row in rows))


def point_structure(*state_weight_maps_and_weights) -> InfoStructure:
    """InfoStructure from (posterior-dict, weight) pairs."""
    return InfoStructure(
        tuple((Posterior(probs), w) for probs, w in state_weight_maps_and_weights)
    )


def twin_menu(menu: Menu) -> Menu:
    """An equal menu built from fresh objects all the way down."""
    return Menu(
        tuple(
            Act({state: Lottery(dict(lottery.probs)) for state, lottery in act.outcomes})
            for act in menu
        )
    )


def twin_structure(pi: InfoStructure) -> InfoStructure:
    return InfoStructure(tuple((Posterior(dict(p.probs)), w) for p, w in pi.support))


def twin_credal_set(credal: CredalSet) -> CredalSet:
    return CredalSet(tuple(twin_structure(pi) for pi in credal))


def twin_collection(coll: Collection) -> Collection:
    return Collection(tuple(twin_credal_set(member) for member in coll))


def twin_instance(inst: Instance) -> Instance:
    return Instance(states=inst.states, prizes=inst.prizes, utility=dict(inst.utility))


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def instances(draw, max_states: int = 3, max_prizes: int = 3):
    n_states = draw(st.integers(1, max_states))
    n_prizes = draw(st.integers(2, max_prizes))
    utilities = draw(
        st.lists(st.integers(0, 5), min_size=n_prizes, max_size=n_prizes).filter(
            lambda vals: len(set(vals)) > 1
        )
    )
    # A shuffled state order: readers must index by `inst.states`, not by label.
    states = draw(st.permutations([f"s{i}" for i in range(n_states)]))
    return Instance(
        states=tuple(states),
        prizes=tuple(f"z{i}" for i in range(n_prizes)),
        utility={f"z{i}": Fraction(u) for i, u in enumerate(utilities)},
    )


def _distribution(draw, labels):
    weights = draw(
        st.lists(st.integers(0, 3), min_size=len(labels), max_size=len(labels)).filter(any)
    )
    total = sum(weights)
    return {label: Fraction(w, total) for label, w in zip(labels, weights) if w}


@st.composite
def lotteries(draw, inst: Instance):
    return Lottery(_distribution(draw, inst.prizes))


@st.composite
def posteriors(draw, inst: Instance):
    return Posterior(_distribution(draw, inst.states))


@st.composite
def acts(draw, inst: Instance):
    return Act({state: draw(lotteries(inst)) for state in inst.states})


@st.composite
def menus(draw, inst: Instance, max_acts: int = 3):
    count = draw(st.integers(1, max_acts))
    return Menu(tuple(draw(acts(inst)) for _ in range(count)))


@st.composite
def structures(draw, inst: Instance, max_support: int = 3):
    count = draw(st.integers(1, max_support))
    support = {}
    for _ in range(count):
        support[draw(posteriors(inst))] = draw(st.integers(1, 3))
    total = sum(support.values())
    return InfoStructure(tuple((p, Fraction(w, total)) for p, w in support.items()))


@st.composite
def credal_sets(draw, inst: Instance, max_generators: int = 3):
    count = draw(st.integers(1, max_generators))
    return CredalSet(tuple(draw(structures(inst)) for _ in range(count)))


@st.composite
def collections(draw, inst: Instance, max_members: int = 3):
    count = draw(st.integers(1, max_members))
    return Collection(
        tuple(draw(credal_sets(inst, max_generators=2)) for _ in range(count))
    )


@st.composite
def shared_generator_collections(draw, inst: Instance):
    """A collection whose members draw their generators from one small pool, so
    members share them."""
    pool = draw(st.lists(structures(inst), min_size=1, max_size=4))
    members = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=3),
                            min_size=1, max_size=4))
    return Collection(tuple(CredalSet(tuple(member)) for member in members))


@st.composite
def shared_generator_corpora(draw):
    """An instance, a `shared_generator_collections` collection, and a corpus holding
    a repeated menu and a menu equal to another but built from distinct objects."""
    inst = draw(instances())
    coll = draw(shared_generator_collections(inst))
    drawn = draw(st.lists(menus(inst), min_size=1, max_size=4))
    corpus = drawn + [drawn[0], twin_menu(drawn[-1])]
    return inst, coll, draw(st.permutations(corpus))


@st.composite
def scenarios(draw, n_menus: int = 2):
    """A bundle: instance plus menus, a credal set, and a collection over it."""
    inst = draw(instances())
    return SimpleNamespace(
        inst=inst,
        menus=[draw(menus(inst)) for _ in range(n_menus)],
        credal=draw(credal_sets(inst)),
        collection=draw(collections(inst)),
    )


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)
