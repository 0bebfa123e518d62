"""Exception types shared across the toolkit.

Every error raised on bad input or a failed numeric contract derives from
ToolkitError so callers can catch the whole family; the CLI maps them to
exit codes (usage/validation errors -> 2, I/O -> 3).
"""

from __future__ import annotations


class ToolkitError(ValueError):
    """Base class for all toolkit errors."""


class DimensionError(ToolkitError):
    """Matrix or vector shape is wrong (non-square, mismatched sizes, empty)."""


class NumericError(ToolkitError):
    """Non-finite entries, or an input outside a numeric tolerance contract."""


class InputError(ToolkitError):
    """Malformed value: bad permutation images, bad group spec, bad file body."""


class UndefinedResidualError(ToolkitError):
    """A normalized residual is requested for a zero matrix."""


class StructuralMismatchError(ToolkitError):
    """A predicted column's Rayleigh quotient falls in a spectral gap."""


class DegeneracyMismatchError(ToolkitError):
    """Cluster cardinalities of prediction and spectrum disagree."""


class NotMultiplicityFreeError(ToolkitError):
    """The action is intransitive or its commutant is not commutative."""
