"""Exception classes shared by every framesel module: one per exit code.

The three subclasses carry the exit codes the command-line front end maps
them to: 2 for malformed file content, 3 for inputs that disagree with each
other, 4 for bad parameter values.  The base class exits 1.  The message
says which check failed; no caller needs a finer class to tell them apart.
"""

from __future__ import annotations


class FrameselError(Exception):
    """Base class for all errors raised by this package; raised itself when a checked guarantee fails."""

    exit_code = 1


class FormatError(FrameselError):
    """A file's content does not match its declared format."""

    exit_code = 2


class AlignmentError(FrameselError):
    """Two inputs that must agree do not: on the candidates, or on the question types."""

    exit_code = 3


class ParameterError(FrameselError):
    """A parameter value is outside its valid range."""

    exit_code = 4
