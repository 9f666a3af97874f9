"""Domain types for menu choice under uncertain future information.

Everything is exact: probabilities, weights, and utilities are
:class:`fractions.Fraction` values, so the weak inequalities that decide
preference verdicts never hinge on floating-point ties.  All types are
immutable and hashable after construction and canonicalize their contents,
which makes structural equality order-insensitive: `Lottery`, `Posterior`
and `InfoStructure` are finite probability measures in the one form the
measure rule gives them (repeated labels summed, zeros dropped), read from
rationals by `_measure` or by its integer core `_of_numerators`.  A
`Lottery` or `Posterior` holds it on ints alone, one denominator and a
numerator per label, and builds its ``probs`` Fractions on first read;
`Act` and `Menu` sort their contents, acts by the integer key
`_act_sort_key`, and `CredalSet` and `Collection` drop exact duplicates in
first-seen order (`_distinct`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, is_not
from typing import ClassVar, Union

from .errors import (
    BadProbabilityError,
    BadWeightError,
    ConstantUtilityError,
    DimensionMismatchError,
    EmptyStateSpaceError,
    ValidationError,
)

#: Exact rational payoff (in utils); the result type of every evaluation.
Value = Fraction

#: Anything `as_fraction` accepts: an exact rational, an int, or a "p/q" string.
RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Convert *value* to an exact Fraction.

    Floats are rejected on purpose: silently converting 0.1 to
    3602879701896397/36028797018963968 would corrupt every downstream
    comparison.  A string must follow the rational grammar of `_rational`,
    else it is a ValidationError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(*_rational(value))
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"malformed rational {value!r}") from None
    raise TypeError(f"expected an exact rational (Fraction, int, or 'p/q' string), got {value!r}")


def _rational(text: str) -> tuple[int, int]:
    """A rational string's value as a reduced ``(num, den)``, read in one pass with `int`.

    This is the one rational grammar, shared by `as_fraction`, documents and
    CLI weights: ASCII ``[+-]D``, ``[+-]D/D`` or ``[+-]D.D`` with ``D`` one
    or more digits 0-9, so no whitespace, ``_`` separators, exponents, bare
    points or non-ASCII digits.  Raises ValueError for a string outside the grammar and ZeroDivisionError
    for a zero denominator, with the messages ``Fraction(text)`` gives.
    """
    body = text[1:] if text[:1] in ("+", "-") else text
    num, slash, den = body.partition("/")
    whole, point, decimals = num.partition(".")
    if body.isascii() and (
        num.isdigit() and den.isdigit()
        if slash
        else whole.isdigit() and (decimals.isdigit() or not point)
    ):
        if slash:
            numerator, denominator = int(num), int(den)
        else:
            denominator = 10 ** len(decimals)
            numerator = int(whole) * denominator + int(decimals or 0)
        if text[0] == "-":
            numerator = -numerator
        if denominator:
            divisor = gcd(numerator, denominator)
            return numerator // divisor, denominator // divisor
        raise ZeroDivisionError(f"Fraction({numerator}, 0)")
    # `Fraction` also reads whitespace, "_" and non-ASCII digits, so a text
    # outside the grammar such as "0/0 " gets its zero-denominator message.
    # It is never shown an "e" or "E": it would expand an exponent to
    # 10**exp, and it reads one only in a text without "/", which cannot
    # have a zero denominator, so its message would be the one below.
    if "e" not in text and "E" not in text:
        Fraction(text)
    raise ValueError(f"Invalid literal for Fraction: {text!r}")


def unit_weight(raw: RationalLike, what: str) -> Fraction:
    """*raw* as an exact weight in [0, 1]; *what* names the weight in the error."""
    weight = as_fraction(raw)
    if not 0 <= weight <= 1:
        raise BadWeightError(f"{what} must lie in [0, 1], got {weight}")
    return weight


class _HashOnce:
    """Base of the value types: the hash is computed on first use and kept.

    The kept hash is a plain attribute, not a dataclass field, so it takes
    no part in ``==`` or ``repr``.  It is left out of pickled state because
    string hashes differ from one process to the next.
    """

    _hash = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state


def _hash_of(*canonical_fields: str):
    """A ``__hash__`` over the given already-canonical fields, kept after first use:
    values are hashed on every memo lookup, and a Fraction in one hashes slowly."""
    key = attrgetter(*canonical_fields)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(key(self))
            object.__setattr__(self, "_hash", cached)
        return cached

    return __hash__


def _pairs(entries: Mapping | Iterable[tuple]) -> Iterable[tuple]:
    """The (key, value) pairs of a mapping, or the given pairs."""
    # Exact type tests first: the `Mapping` ABC check is slow, and the
    # entries are almost always a dict or a list of pairs.
    kind = type(entries)
    if kind is dict:
        return entries.items()
    if kind is list or not isinstance(entries, Mapping):
        return entries
    return entries.items()


def _measure(entries: Mapping | Iterable[tuple], what: str, label_type: type) -> tuple[int, dict]:
    """A finite probability measure as ``(L, {label: num})``, each label's summed
    probability ``num / L`` with ``L`` the lcm of their reduced denominators: the
    front end of the one measure rule, whose integer core is `_of_numerators`.
    Labels must be *label_type*s, each entry nonnegative (checked before repeated
    labels are summed) and the total exactly 1; *what* names the entries in messages.
    """
    merged: dict = {}
    for label, raw in _pairs(entries):
        if not isinstance(label, label_type):
            raise _label_error(what, label_type, label)
        prob = raw if type(raw) is Fraction else as_fraction(raw)
        if prob.numerator < 0:
            raise _negative_error(what, prob, label)
        # Not `merged.get(label, 0) + prob`: int + Fraction runs the slower `__radd__`.
        merged[label] = merged[label] + prob if label in merged else prob
    common = lcm(*[prob.denominator for prob in merged.values()])
    numerators = {label: p.numerator * (common // p.denominator) for label, p in merged.items()}
    _check_total(sum(numerators.values()), common, what)
    return common, numerators


def _check_total(mass: int, total: int, what: str) -> None:
    """The measure rule's one total check: the numerators' sum *mass* over *total* is 1."""
    if mass != total:
        raise BadProbabilityError(f"{what} sum to {Fraction(mass, total)}, expected exactly 1")


def _label_error(what: str, label_type: type, label) -> TypeError:
    return TypeError(f"{what} must be keyed by {label_type.__name__}, got {label!r}")


def _negative_error(what: str, prob: Fraction, label) -> BadProbabilityError:
    return BadProbabilityError(f"{what} must be nonnegative, got {prob} for {label!r}")


def _members(items: Iterable, item_type: type) -> tuple:
    """The *items* as a tuple, each checked to be a *item_type*."""
    items = tuple(items)
    for item in items:
        if not isinstance(item, item_type):
            article = "an" if item_type.__name__[0] in "AEIOU" else "a"
            raise TypeError(f"expected {article} {item_type.__name__}, got {item!r}")
    return items


def _distinct(items: Iterable, item_type: type, empty_message: str) -> tuple:
    """The *items*, each a *item_type*, in first-seen order with exact duplicates removed."""
    items = _members(items, item_type)
    if not items:
        raise ValidationError(empty_message)
    return tuple(dict.fromkeys(items))


@dataclass(frozen=True)
class _Distribution(_HashOnce):
    """Base of `Lottery` and `Posterior`: an exact distribution over string labels.

    ``probs`` is given as a mapping or (label, rational) pairs.  The value
    is held as ``_form = (den, ((label, num), ...))`` in label order, ``den``
    the lcm of the reduced denominators and each nonzero probability ``num /
    den``.  Equality (within one type), hashing and evaluation read only
    these ints; ``probs`` reads as the sorted (label, Fraction) pairs, built
    on first read.
    """

    probs: Mapping[str, RationalLike]
    __hash__ = _hash_of("_form")

    #: What the entries are, for error messages.
    _what: ClassVar[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_form", _canonical(*_measure(self.probs, self._what, str)))
        object.__delattr__(self, "probs")

    def __eq__(self, other: object) -> bool:
        return self._form == other._form if type(other) is type(self) else NotImplemented

    def __getstate__(self) -> dict:
        return {"_form": self._form}  # the value alone: `probs` and the hash are rebuilt

    def __getattr__(self, name: str):
        if name != "probs":  # the one attribute left unset: built on its first read
            raise AttributeError(name)
        probs = tuple([(label, Fraction(num, self._form[0])) for label, num in self._form[1]])
        object.__setattr__(self, "probs", probs)
        return probs

    @classmethod
    def _of_numerators(cls, numerators: dict[str, int], total: int, held: dict | None = None):
        """The distribution giving each label ``numerators[label] / total``: the
        integer core of the measure rule, used in place of `__post_init__`, with
        the checks and messages of `_measure` decided on the ints.  With a *held*
        table (`Instance._held`), the table's one distribution for its value.
        """
        what = cls._what
        for label, num in numerators.items():
            if not isinstance(label, str):
                raise _label_error(what, str, label)
            if num < 0:
                raise _negative_error(what, Fraction(num, total), label)
        _check_total(sum(numerators.values()), total, what)
        dist = object.__new__(cls)
        object.__setattr__(dist, "_form", _canonical(total, numerators))
        return dist if held is None else held.setdefault(dist, dist)

    @classmethod
    def degenerate(cls, label: str):
        """The point mass on a single label."""
        return cls._of_numerators({label: 1}, 1)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple([label for label, _ in self._form[1]])

    def prob(self, label: str) -> Fraction:
        return dict(self.probs).get(label, Fraction(0))


def _canonical(total: int, numerators: dict[str, int]) -> tuple:
    """The reduced integer form of the checked measure ``numerators[label] / total``."""
    divisor = gcd(total, *numerators.values())
    pairs = sorted([(label, num // divisor) for label, num in numerators.items() if num])
    return total // divisor, tuple(pairs)


class Lottery(_Distribution):
    """A lottery over deterministic prizes with exact probabilities."""

    _what = "prize probabilities"


class Posterior(_Distribution):
    """A probability distribution over states (a belief after learning)."""

    _what = "state probabilities"


@dataclass(frozen=True)
class Act(_HashOnce):
    """A state-contingent assignment of lotteries.

    The mapping must cover every state of the instance it is used with;
    that is checked where instances are available (see `validate_act`).
    """

    outcomes: Mapping[str, Lottery]
    __hash__ = _hash_of("outcomes")

    def __post_init__(self) -> None:
        canonical = []
        seen = set()
        for state, lottery in _pairs(self.outcomes):
            if not isinstance(state, str):
                raise TypeError(f"state labels must be strings, got {state!r}")
            if not isinstance(lottery, Lottery):
                raise TypeError(f"act outcome for {state!r} must be a Lottery, got {lottery!r}")
            if state in seen:
                raise ValidationError(f"duplicate state {state!r} in act")
            seen.add(state)
            canonical.append((state, lottery))
        if not canonical:
            raise ValidationError("act must assign an outcome to at least one state")
        object.__setattr__(self, "outcomes", tuple(sorted(canonical)))

    @classmethod
    def _of_outcomes(cls, outcomes: tuple[tuple[str, Lottery], ...]) -> "Act":
        """The act with *outcomes*, already canonical, used in place of `__post_init__`.

        The caller guarantees what `__post_init__` checks and sorts: at least
        one pair, distinct string states in sorted order, each paying a
        `Lottery`, as the mixture of two acts over the same states does
        (`evaluation._mix_acts`), and a loaded act over the instance's states.
        """
        act = object.__new__(cls)
        object.__setattr__(act, "outcomes", outcomes)
        return act

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(state for state, _ in self.outcomes)

    def lottery(self, state: str) -> Lottery:
        for label, lot in self.outcomes:
            if label == state:
                return lot
        raise DimensionMismatchError(
            f"act has no outcome for state {state!r} (it covers {sorted(self.states)})"
        )

    def is_constant(self) -> bool:
        lotteries = {lot for _, lot in self.outcomes}
        return len(lotteries) == 1


def _act_sort_key(act: Act) -> tuple:
    """The canonical act order, injective on acts: per outcome, ``(state, (den, pairs))``."""
    return tuple([(state, lottery._form) for state, lottery in act.outcomes])


@dataclass(frozen=True)
class Menu(_HashOnce):
    """A nonempty finite set of acts (duplicates removed, order canonical)."""

    acts: Iterable[Act]
    __hash__ = _hash_of("acts")

    def __post_init__(self) -> None:
        unique = sorted(set(_members(self.acts, Act)), key=_act_sort_key)
        if not unique:
            raise ValidationError("menu must contain at least one act")
        object.__setattr__(self, "acts", tuple(unique))

    def __iter__(self):
        return iter(self.acts)

    def __len__(self) -> int:
        return len(self.acts)

    def __contains__(self, act: object) -> bool:
        return act in self.acts

    def issubset(self, other: "Menu") -> bool:
        _members((other,), Menu)
        return set(self.acts) <= set(other.acts)

    def union(self, other: "Menu | Iterable[Act]") -> "Menu":
        # A non-iterable *other* is one stray member, which `Menu` names in its TypeError.
        return Menu(self.acts + tuple(other if isinstance(other, Iterable) else (other,)))


@dataclass(frozen=True)
class InfoStructure(_HashOnce):
    """A finitely supported distribution over posteriors.

    Models a member's prediction of what she will believe after learning:
    posterior ``p`` arrives with probability ``weight``.  The measure rule
    `_measure` canonicalizes the support: weights nonnegative, repeated
    posteriors summed, zero weights dropped, total exactly one, pairs
    ordered by the posteriors' probabilities.
    """

    support: Iterable[tuple[Posterior, RationalLike]]
    __hash__ = _hash_of("support")

    def __post_init__(self) -> None:
        total, weights = _measure(self.support, "information-structure weights", Posterior)
        support = [(posterior, Fraction(num, total)) for posterior, num in weights.items() if num]
        # Rescaled to one denominator, the masses order posteriors as their `probs` do.
        common = lcm(*[posterior._form[0] for posterior in weights])
        scale = {posterior: common // posterior._form[0] for posterior in weights}
        support.sort(key=lambda pair: [(s, m * scale[pair[0]]) for s, m in pair[0]._form[1]])
        object.__setattr__(self, "support", tuple(support))

    @classmethod
    def point_mass(cls, posterior: Posterior) -> "InfoStructure":
        """The structure that predicts posterior ``p`` with certainty."""
        return cls(((posterior, Fraction(1)),))

    @property
    def posteriors(self) -> tuple[Posterior, ...]:
        return tuple(p for p, _ in self.support)

    def weight(self, posterior: Posterior) -> Fraction:
        for p, w in self.support:
            if p == posterior:
                return w
        return Fraction(0)


@dataclass(frozen=True)
class CredalSet(_HashOnce):
    """A polytope of information structures, given by its generators.

    The represented set is the convex hull of ``generators``; exact
    duplicates are removed but generator order is preserved (it is the
    order used in printed gap tables).
    """

    generators: Iterable[InfoStructure]
    __hash__ = _hash_of("generators")

    def __post_init__(self) -> None:
        generators = _distinct(
            self.generators, InfoStructure, "credal set needs at least one generator"
        )
        object.__setattr__(self, "generators", generators)

    @classmethod
    def singleton(cls, structure: InfoStructure) -> "CredalSet":
        return cls((structure,))

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Collection(_HashOnce):
    """A nonempty finite family of credal sets (one per sub-group)."""

    members: Iterable[CredalSet]
    __hash__ = _hash_of("members")

    def __post_init__(self) -> None:
        members = _distinct(self.members, CredalSet, "collection needs at least one credal set")
        object.__setattr__(self, "members", members)

    @classmethod
    def of_credal_set(cls, credal: CredalSet) -> "Collection":
        """The one-member collection; the unanimity criterion over it."""
        return cls((credal,))

    @classmethod
    def of_singletons(cls, credal: CredalSet) -> "Collection":
        """One singleton member per generator; the veto criterion over it."""
        return cls(tuple(CredalSet.singleton(gen) for gen in credal))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class Verdict(Enum):
    """Outcome of comparing two menus under a (possibly partial) criterion."""

    STRICT_BETTER = "StrictBetter"
    INDIFFERENT = "Indifferent"
    STRICT_WORSE = "StrictWorse"
    INCOMPARABLE = "Incomparable"

    @staticmethod
    def from_directions(forward: bool, backward: bool) -> "Verdict":
        """Assemble a verdict from the two weak-preference directions."""
        if forward and backward:
            return Verdict.INDIFFERENT
        if forward:
            return Verdict.STRICT_BETTER
        if backward:
            return Verdict.STRICT_WORSE
        return Verdict.INCOMPARABLE

    def flipped(self) -> "Verdict":
        """The verdict for the same pair compared in the opposite order."""
        if self is Verdict.STRICT_BETTER:
            return Verdict.STRICT_WORSE
        if self is Verdict.STRICT_WORSE:
            return Verdict.STRICT_BETTER
        return self


@dataclass(frozen=True)
class Instance(_HashOnce):
    """The ambient decision environment: states, prizes, and a vNM utility.

    Attributes:
        states: ordered state labels; at least one.
        prizes: ordered prize labels; at least two.
        utility: prize -> exact rational utility, given for every prize and
            nonconstant (two prizes must differ, otherwise every comparison
            would degenerate to indifference).
    """

    states: tuple[str, ...]
    prizes: tuple[str, ...]
    utility: Mapping[str, RationalLike]
    # The prize utilities as integer numerators over one denominator U,
    # ``(U, {prize: u(prize) * U})``, set once in `__post_init__`.
    _prize_table: tuple = field(init=False, repr=False, compare=False)
    # Memos, owned by the instance so they are freed with it: act or
    # posterior -> one integer vector over `states` (see `evaluation._vector`);
    # (menu, structure) -> benefit of information; (a, b) -> the audit's
    # mixtures at weight a / b, of lottery, act and menu pairs (see
    # `audit._mixed`); and the held-value table, one object per value:
    # interned menus and acts and mixed lotteries -> themselves.  Within a
    # table, keys of different types never compare equal.
    _numerators: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _benefits: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _mixtures: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    __hash__ = _hash_of("states", "prizes", "utility")

    def __reduce__(self):
        # Rebuild from the value alone: neither the memos nor the kept hash
        # are pickled.
        return (Instance, (self.states, self.prizes, self.utility))

    def __post_init__(self) -> None:
        for labels in (self.states, self.prizes):
            if isinstance(labels, str):
                raise TypeError(f"expected a sequence of labels, got {labels!r}")
        states = tuple(self.states)
        prizes = tuple(self.prizes)
        try:
            entries = [(prize, value) for prize, value in _pairs(self.utility)]
        except (TypeError, ValueError):
            message = f"utility must be a prize mapping or pairs, got {self.utility!r}"
            raise ValidationError(message) from None
        utility = tuple((prize, as_fraction(value)) for prize, value in entries)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "prizes", prizes)
        object.__setattr__(self, "utility", utility)
        validate_instance(self)
        scale = lcm(*[value.denominator for _, value in utility])
        units = {prize: value.numerator * (scale // value.denominator) for prize, value in utility}
        object.__setattr__(self, "_prize_table", (scale, units))

    def _intern(self, menu: Menu) -> Menu:
        """The one menu object this instance holds for *menu*'s value, made of
        the acts it holds (`_intern_act`).  Memo keys compare by identity
        before value, so a held menu or act finds its memo entries without
        comparing acts and lotteries one by one.
        """
        held = self._held.get(menu)
        if held is None:
            acts = tuple(map(self._intern_act, menu.acts))
            if any(map(is_not, acts, menu.acts)):
                menu = Menu(acts)
            held = self._held[menu] = menu
        return held

    def _intern_act(self, act: Act) -> Act:
        """The one act object this instance holds for *act*'s value."""
        return self._held.setdefault(act, act)

    def utility_of(self, prize: str) -> Fraction:
        for label, value in self.utility:
            if label == prize:
                return value
        raise self._unknown_prize(prize)

    def _unknown_prize(self, prize: str) -> ValidationError:
        return ValidationError(f"prize {prize!r} is not in the instance {list(self.prizes)}")

    def lottery_utility(self, lottery: Lottery) -> Fraction:
        """Expected utility of a lottery (the affine extension of the prize utility)."""
        return Fraction(*self._lottery_numerator(lottery))

    def _lottery_numerator(self, lottery: Lottery) -> tuple[int, int]:
        """The lottery's expected utility as an unreduced integer pair ``(num, den)``:
        the one expected-utility rule, ``den = L * U`` with ``L`` the lottery's
        denominator and ``U`` the instance's utility denominator."""
        scale, units = self._prize_table
        common, pairs = lottery._form
        try:
            total = sum([num * units[prize] for prize, num in pairs])
        except KeyError as exc:
            raise self._unknown_prize(exc.args[0]) from None
        return total, common * scale

    def best_prize(self) -> str:
        return max(self.prizes, key=self.utility_of)

    def worst_prize(self) -> str:
        return min(self.prizes, key=self.utility_of)

    def utility_range(self) -> tuple[Fraction, Fraction]:
        values = [self.utility_of(z) for z in self.prizes]
        return min(values), max(values)

    def rescaled(self, scale: RationalLike, shift: RationalLike) -> "Instance":
        """The instance with utility replaced by ``scale * u + shift``."""
        scale = as_fraction(scale)
        shift = as_fraction(shift)
        if scale <= 0:
            raise ValidationError("utility rescaling requires a positive scale")
        return Instance(
            states=self.states,
            prizes=self.prizes,
            utility={z: scale * u + shift for z, u in self.utility},
        )


def validate_instance(inst: Instance) -> None:
    """Check all structural invariants of an instance.

    Raises EmptyStateSpaceError, ConstantUtilityError, or ValidationError;
    returns None when the instance is well formed.
    """
    _members((inst,), Instance)
    if not inst.states:
        raise EmptyStateSpaceError("instance needs at least one state")
    if len(set(inst.states)) != len(inst.states):
        raise ValidationError("duplicate state labels")
    if len(set(inst.prizes)) != len(inst.prizes):
        raise ValidationError("duplicate prize labels")
    if any(not isinstance(s, str) for s in inst.states):
        raise TypeError("state labels must be strings")
    if any(not isinstance(z, str) for z in inst.prizes):
        raise TypeError("prize labels must be strings")
    declared = {label for label, _ in inst.utility}
    if len(declared) != len(inst.utility):
        raise ValidationError("duplicate prize labels in utility")
    if declared != set(inst.prizes):
        missing = set(inst.prizes) - declared
        extra = declared - set(inst.prizes)
        raise ValidationError(
            f"utility must be given for exactly the prizes (missing {sorted(missing)}, unknown {sorted(extra)})"
        )
    if len(inst.prizes) < 2:
        raise ConstantUtilityError("at least two prizes are required for a nonconstant utility")
    values = {value for _, value in inst.utility}
    if len(values) < 2:
        raise ConstantUtilityError("utility assigns the same value to every prize")


def validate_lottery(lottery: Lottery | Mapping[str, RationalLike], inst: Instance) -> None:
    """Check that the lottery, or the label map it is built from, names only known prizes."""
    labels = lottery.support if isinstance(lottery, Lottery) else lottery
    unknown = set(labels).difference(inst.prizes)
    if unknown:
        raise ValidationError(f"lottery over unknown prizes {sorted(unknown)}")


def validate_act(act: Act, inst: Instance) -> None:
    """Check that the act assigns exactly the instance's states lotteries over its prizes.

    A state outside the instance or a missing one is a DimensionMismatchError,
    as in the evaluation kernel; an unknown prize is a ValidationError.
    """
    _validate_states(act, inst)
    for _, lottery in act.outcomes:
        validate_lottery(lottery, inst)


def _validate_states(act: Act, inst: Instance) -> None:
    """`validate_act`'s state checks alone, for a caller whose lotteries are checked already."""
    states, covered = set(inst.states), set(act.states)
    if not covered <= states:
        raise DimensionMismatchError(_unknown_states(act, inst))
    missing = states - covered
    if missing:
        raise DimensionMismatchError(f"missing states {sorted(missing)}")


def _unknown_states(act: Act, inst: Instance) -> str:
    """The message for an act that names states outside the instance."""
    return f"unknown states {sorted(set(act.states) - set(inst.states))}"


def validate_posterior(p: Posterior | Mapping[str, RationalLike], inst: Instance) -> None:
    """Check that the posterior, or the label map it is built from, names only known states."""
    unknown = set(p.support if isinstance(p, Posterior) else p) - set(inst.states)
    if unknown:
        raise DimensionMismatchError(f"posterior over unknown states {sorted(unknown)}")


def constant_act(inst: Instance, x: Lottery) -> Act:
    """The act that pays the lottery *x* in every state."""
    _members((inst,), Instance)
    _members((x,), Lottery)
    validate_lottery(x, inst)
    return Act({state: x for state in inst.states})


def constant_menu(inst: Instance, x: Lottery) -> Menu:
    """The singleton menu of the constant act on *x* (an outcome viewed as a menu)."""
    return Menu((constant_act(inst, x),))


def mean_posterior(pi: InfoStructure) -> Posterior:
    """The prior implied by an information structure: the weighted average posterior."""
    _members((pi,), InfoStructure)
    return Posterior([(s, w * p) for posterior, w in pi.support for s, p in posterior.probs])


def combine_structures(
    structures: Iterable[InfoStructure],
    weights: Iterable[RationalLike],
) -> InfoStructure:
    """The convex combination of information structures as measures over posteriors."""
    structures = _members(structures, InfoStructure)
    weights = tuple(as_fraction(w) for w in weights)
    if len(structures) != len(weights) or not structures:
        raise ValidationError("need one weight per structure and at least one structure")
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise BadProbabilityError("combination weights must be nonnegative and sum to 1")
    return InfoStructure(
        [(p, w * v) for structure, w in zip(structures, weights) for p, v in structure.support]
    )


def mix_structures(a: InfoStructure, b: InfoStructure, alpha: RationalLike) -> InfoStructure:
    """``alpha * a + (1 - alpha) * b`` as measures over posteriors."""
    alpha = unit_weight(alpha, "mixture weight")
    return combine_structures((a, b), (alpha, 1 - alpha))
