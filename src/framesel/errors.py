"""Exception hierarchy shared by every framesel module.

The three mid-level classes carry the exit codes the command-line front end
maps them to: 2 for malformed file content, 3 for inputs that disagree with
each other, 4 for bad parameter values.  Anything else exits 1.
"""

from __future__ import annotations


class FrameselError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class FormatError(FrameselError):
    """A file's content does not match its declared format."""

    exit_code = 2


class AlignmentError(FrameselError):
    """Two inputs that must describe the same candidates do not."""

    exit_code = 3


class ParameterError(FrameselError):
    """A parameter value is outside its valid range."""

    exit_code = 4


class EmptyPoolError(ParameterError):
    """The video spans zero whole seconds, so no candidates exist."""


class DegenerateSpacingError(ParameterError):
    """cap=1 cannot spread over more than one candidate second."""


class BudgetError(ParameterError):
    """The selection budget K is not a positive integer."""


class DuplicateSelectionError(ParameterError):
    """A marginal gain was requested for an already-selected position."""


class InstanceTooLargeError(ParameterError):
    """Exhaustive enumeration was requested beyond the ground-set guard."""


class MissingClassError(ParameterError):
    """A declared question type has no training examples."""


class DegenerateDataError(ParameterError):
    """Training data yields no usable features."""


class DegenerateEmbeddingError(FormatError):
    """An embedding row has zero or non-finite norm and cannot be normalized."""


class IncompleteTableError(FormatError):
    """The accuracy table is missing a type/preset cell."""


class RoutingGapError(AlignmentError):
    """The classifier predicted a type the routing table does not map."""


class BoundViolationError(FrameselError):
    """Greedy fell below the proven approximation ratio on some instance."""
