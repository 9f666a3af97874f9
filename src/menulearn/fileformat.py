"""Instance documents: a JSON schema for decision environments.

A document carries one instance plus named menus, information structures,
credal sets, and collections:

.. code-block:: json

    {
      "states": ["w1", "w2"],
      "prizes": ["win", "lose"],
      "utility": {"win": "3", "lose": "0"},
      "menus": {"f": [{"w1": {"win": "2/3", "lose": "1/3"}, "w2": {...}}]},
      "info_structures": {
        "pi": [{"posterior": {"w1": "1"}, "weight": "1/2"},
               {"posterior": {"w2": "1"}, "weight": "1/2"}]
      },
      "credal_sets": {"Pi": ["delta_p", "pi"]},
      "collections": {"split": [["delta_p"], ["pi"]], "hull": ["Pi"]}
    }

All rationals are strings (or JSON integers), never floats, so a parse ->
serialize -> parse round trip reproduces the document's objects exactly.
A rational string is ASCII and has one of three forms, ``D`` one or more
digits 0-9:

* ``[+-]D``: an integer, ``"3"``, ``"-2"``;
* ``[+-]D/D`` with a nonzero denominator: ``"2/3"``, ``"+05/10"``;
* ``[+-]D.D``: a finite decimal, ``"0.25"``.

Nothing else is a rational: no whitespace, ``_`` separators, exponents
(``"1e3"``), bare points (``".5"``, ``"1."``) or non-ASCII digits.
Collection members may name a credal set or inline a list of
information-structure names.

Loading reads each distinct rational string of a document once, as a reduced
integer pair, and builds each distinct lottery object once, from its pairs over
their lcm: lottery objects with the same labels and rational strings, in the
same order, share one `Lottery`, so equal acts compare their lotteries by
identity.  Both tables live for one `load_document` call only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from .core import (
    Act,
    Collection,
    CredalSet,
    Instance,
    InfoStructure,
    Lottery,
    Menu,
    Posterior,
    _members,
    _rational,
    _validate_states,
    validate_lottery,
    validate_posterior,
)
from .errors import MenuLearnError, ParseError, UnknownNameError, ValidationError


def parse_fraction(text: object, where: str) -> Fraction:
    """Parse an exact rational from a string of the grammar above, or an int."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"{where}: expected a rational string like '3/4', got {text!r}")
    try:
        return Fraction(*_rational(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: malformed rational {text!r} ({exc})") from None


#: Workspace table -> the noun every message uses for its objects, parameter
#: kinds first (the order in which the CLI looks for a kind mismatch).
_KINDS = {"info_structures": "information structure", "credal_sets": "credal set",
          "collections": "collection", "menus": "menu"}


@dataclass
class Workspace:
    """A parsed instance document with name lookups for every object kind."""

    instance: Instance
    menus: dict[str, Menu] = field(default_factory=dict)
    info_structures: dict[str, InfoStructure] = field(default_factory=dict)
    credal_sets: dict[str, CredalSet] = field(default_factory=dict)
    collections: dict[str, Collection] = field(default_factory=dict)

    def menu(self, name: str) -> Menu:
        return self._find("menus", name)

    def info_structure(self, name: str) -> InfoStructure:
        return self._find("info_structures", name)

    def credal_set(self, name: str) -> CredalSet:
        return self._find("credal_sets", name)

    def collection(self, name: str) -> Collection:
        return self._find("collections", name)

    def _find(self, kind: str, name: str):
        """The object called *name* in the table *kind* (a key of `_KINDS`)."""
        table = getattr(self, kind)
        if name not in table:
            known = ", ".join(sorted(table)) or "none defined"
            raise UnknownNameError(f"unknown {_KINDS[kind]} {name!r} (known: {known})")
        return table[name]

    def structure_label(self, structure: InfoStructure) -> str:
        """The document name of a structure, or a compact inline rendering."""
        for name, candidate in self.info_structures.items():
            if candidate == structure:
                return name
        parts = [f"{dict(p.probs)}@{w}" for p, w in structure.support]
        return "{" + ", ".join(parts) + "}"


class _Parsed(dict):
    """One document's rational strings, each read once: string -> reduced ``(num, den)``.

    Only strings go in, so ``1``, ``1.0`` and ``True`` never find ``"1"``.
    """

    def __missing__(self, text: object) -> tuple[int, int]:
        if not isinstance(text, str):
            raise TypeError(f"not a rational string: {text!r}")
        value = self[text] = _rational(text)
        return value


def _numerators(data: object, where: str, label: str, parsed: _Parsed) -> tuple[dict, int]:
    """``(numerators, total)``: key k of the JSON object at ``{where}.{label}``
    reads ``numerators[k] / total``, ``total`` the lcm of the reduced denominators."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}.{label}: expected an object mapping labels to rationals")
    try:
        pairs = [(key, parsed[raw]) for key, raw in data.items()]
    except (TypeError, ValueError, ZeroDivisionError):
        # A JSON integer, or a fault: read entry by entry, each at its location.
        pairs = [(key, parse_fraction(raw, f"{where}.{label}.{key}").as_integer_ratio())
                 for key, raw in data.items()]
    total = lcm(*[den for _, (_, den) in pairs])
    return {key: num * (total // den) for key, (num, den) in pairs}, total


def _parse_act(
    data: object, instance: Instance, where: str, parsed: _Parsed, built: dict
) -> Act:
    """The act at *where*; *built* is the document's table of lotteries already built.

    A lottery object whose values are all strings is built once per
    document: *built* maps its items to the `Lottery`, so an equal object
    later in the document reuses it.  Only all-string objects are keys, so
    JSON ``1`` and ``true``, which compare equal, never share an entry; a
    lottery that fails to build is never stored.  A lottery's prizes are
    checked in the act that builds it: one found in *built* passed that
    check in an earlier act, or the load failed there.  An act over exactly
    the instance's states is built from its sorted pairs.
    """
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object mapping states to lotteries")
    outcomes, fresh = [], []
    for state, lottery_data in data.items():
        key = lottery = None
        if type(lottery_data) is dict and all(type(raw) is str for raw in lottery_data.values()):
            key = tuple(lottery_data.items())
            lottery = built.get(key)
        if lottery is None:
            nums, total = _numerators(lottery_data, where, state, parsed)
            lottery = _wrap(Lottery._of_numerators, nums, total, where=f"{where}.{state}")
            if key is not None:
                built[key] = lottery
            fresh.append((state, lottery_data))
        outcomes.append((state, lottery))
    if data.keys() == set(instance.states):
        act = Act._of_outcomes(tuple(sorted(outcomes)))
    else:
        act = _wrap(Act, outcomes, where=where)
        _wrap(_validate_states, act, instance, where=where)
    # Each new lottery's labels in state order, as `validate_act` takes them, zero
    # entries included: an unknown prize is a fault even at probability 0.
    for _, labels in sorted(fresh):
        _wrap(validate_lottery, labels, instance, where=where)
    return act


def _wrap(fn, *args, where: str):
    """Call *fn*; a `MenuLearnError` it raises becomes a ParseError located at *where*."""
    try:
        return fn(*args)
    except MenuLearnError as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_document(data: object) -> Workspace:
    """Build a workspace from a parsed JSON document, validating everything."""
    if not isinstance(data, dict):
        raise ParseError("document root must be a JSON object")
    for key in ("states", "prizes", "utility"):
        if key not in data:
            raise ParseError(f"document is missing the required section {key!r}")
    states = _parse_labels(data["states"], "states")
    prizes = _parse_labels(data["prizes"], "prizes")
    utility = {
        prize: parse_fraction(raw, f"utility.{prize}")
        for prize, raw in _expect_object(data["utility"], "utility").items()
    }
    try:
        instance = Instance(states=states, prizes=prizes, utility=utility)
    except MenuLearnError as exc:
        raise ParseError(f"invalid instance: {exc}") from None

    workspace = Workspace(instance=instance)
    parsed, built = _Parsed(), {}

    for name, acts_data in _expect_object(data.get("menus", {}), "menus").items():
        if not isinstance(acts_data, list):
            raise ParseError(f"menus.{name}: expected a list of acts")
        acts = [
            _parse_act(act_data, instance, f"menus.{name}[{i}]", parsed, built)
            for i, act_data in enumerate(acts_data)
        ]
        workspace.menus[name] = _wrap(Menu, tuple(acts), where=f"menus.{name}")

    for name, support_data in _expect_object(
        data.get("info_structures", {}), "info_structures"
    ).items():
        if not isinstance(support_data, list):
            raise ParseError(f"info_structures.{name}: expected a list of support points")
        support = []
        for i, point in enumerate(support_data):
            where = f"info_structures.{name}[{i}]"
            if not isinstance(point, dict) or "posterior" not in point or "weight" not in point:
                raise ParseError(f"{where}: expected an object with 'posterior' and 'weight'")
            nums, total = _numerators(point["posterior"], where, "posterior", parsed)
            _wrap(validate_posterior, point["posterior"], instance, where=where)
            posterior = _wrap(Posterior._of_numerators, nums, total, where=f"{where}.posterior")
            weight = parse_fraction(point["weight"], f"{where}.weight")
            support.append((posterior, weight))
        workspace.info_structures[name] = _wrap(
            InfoStructure, tuple(support), where=f"info_structures.{name}"
        )

    for name, generator_names in _expect_object(
        data.get("credal_sets", {}), "credal_sets"
    ).items():
        where = f"credal_sets.{name}"
        if not isinstance(generator_names, list):
            raise ParseError(f"{where}: expected a list of structure names")
        generators = [
            _resolve_structure(workspace, gen_name, where) for gen_name in generator_names
        ]
        workspace.credal_sets[name] = _wrap(CredalSet, tuple(generators), where=where)

    for name, member_list in _expect_object(
        data.get("collections", {}), "collections"
    ).items():
        if not isinstance(member_list, list):
            raise ParseError(f"collections.{name}: expected a list of members")
        members = []
        for i, member in enumerate(member_list):
            where = f"collections.{name}[{i}]"
            if isinstance(member, str):
                members.append(_wrap(workspace.credal_set, member, where=where))
            elif isinstance(member, list):
                generators = [
                    _resolve_structure(workspace, gen_name, where) for gen_name in member
                ]
                members.append(_wrap(CredalSet, tuple(generators), where=where))
            else:
                raise ParseError(
                    f"{where}: member must be a credal-set name or a list of structure names"
                )
        workspace.collections[name] = _wrap(
            Collection, tuple(members), where=f"collections.{name}"
        )

    return workspace


def _resolve_structure(workspace: Workspace, name: object, where: str) -> InfoStructure:
    if not isinstance(name, str):
        raise ParseError(f"{where}: expected an information-structure name, got {name!r}")
    return _wrap(workspace.info_structure, name, where=where)


def _parse_labels(data: object, where: str) -> tuple[str, ...]:
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise ParseError(f"{where}: expected a list of strings")
    return tuple(data)


def _expect_object(data: object, where: str) -> dict:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected a JSON object")
    return data


def loads(text: str) -> Workspace:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return load_document(data)


def load_path(path: str | Path) -> Workspace:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads(text)


def _probability_texts(dist: Lottery | Posterior) -> dict[str, str]:
    """Each label's probability as `str` writes its reduced Fraction, ``n`` or
    ``n/d``, read from the distribution's integer form."""
    den, pairs = dist._form
    return {z: f"{n // gcd(n, den)}/{den // gcd(n, den)}".removesuffix("/1") for z, n in pairs}


def _structure_names(workspace: Workspace, credal: CredalSet, owner: str) -> list[str]:
    """The first name of each of *credal*'s generators in ``workspace.info_structures``,
    as a document refers to them; one without a name is a ValidationError naming *owner*."""
    names = {structure: name for name, structure in reversed(workspace.info_structures.items())}
    if any(gen not in names for gen in credal):
        raise ValidationError(f"cannot dump {owner}: a generator has no structure name")
    return [names[gen] for gen in credal]


def dump_document(workspace: Workspace) -> dict:
    """Serialize a workspace back to the document schema (exact rationals)."""
    _members((workspace,), Workspace)
    inst = workspace.instance
    document: dict = {
        "states": list(inst.states),
        "prizes": list(inst.prizes),
        "utility": {prize: str(value) for prize, value in inst.utility},
    }
    if workspace.menus:
        document["menus"] = {
            name: [
                {
                    state: _probability_texts(lottery)
                    for state, lottery in act.outcomes
                }
                for act in menu
            ]
            for name, menu in workspace.menus.items()
        }
    if workspace.info_structures:
        document["info_structures"] = {
            name: [
                {
                    "posterior": _probability_texts(posterior),
                    "weight": str(weight),
                }
                for posterior, weight in structure.support
            ]
            for name, structure in workspace.info_structures.items()
        }
    if workspace.credal_sets:
        document["credal_sets"] = {
            name: _structure_names(workspace, credal, f"credal set {name!r}")
            for name, credal in workspace.credal_sets.items()
        }
    if workspace.collections:
        named_sets = {credal: name for name, credal in workspace.credal_sets.items()}
        document["collections"] = {
            name: [
                named_sets[member]
                if member in named_sets
                else _structure_names(workspace, member, f"collection {name!r}")
                for member in collection
            ]
            for name, collection in workspace.collections.items()
        }
    return document


def dumps(workspace: Workspace) -> str:
    return json.dumps(dump_document(workspace), indent=2)
