"""Exception hierarchy shared across the package."""

from __future__ import annotations


class MenuLearnError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(MenuLearnError):
    """A domain object violates a structural invariant."""


class BadProbabilityError(ValidationError):
    """A probability vector has a negative entry or does not sum to one."""


class EmptyStateSpaceError(ValidationError):
    """An instance was declared with no states."""


class ConstantUtilityError(ValidationError):
    """The utility function assigns the same value to every prize."""


class BadWeightError(ValidationError):
    """A weight is out of range, or a weight list is negative, empty or does not sum to 1."""


class DimensionMismatchError(ValidationError):
    """An object names states outside the instance, or an act misses some of its states."""


class ParseError(MenuLearnError):
    """An instance document could not be parsed."""


class UnknownNameError(MenuLearnError):
    """A name in a command did not resolve to any object in the document."""


class KindMismatchError(MenuLearnError):
    """A named parameter has the wrong kind for the requested criterion."""
