"""Exception hierarchy.

Each class is an outcome that an exit code or a caller tells apart.  An
InvariantError marks a condition the algorithm proves impossible for genuine
unitary inputs: the input lied or the engine has a bug.  No class names the
site that raised it; every raise site has a message of its own.
"""

from __future__ import annotations


class SynthError(Exception):
    """Base class for everything raised by this package; the CLI exits with
    the class's exit_code."""

    exit_code = 2


class MatrixParseError(SynthError):
    """Malformed matrix file."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class CircuitParseError(SynthError):
    """Malformed circuit file."""

    def __init__(self, message: str, line: int = 0) -> None:
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotUnitaryError(SynthError):
    """Input matrix is not exactly unitary."""

    exit_code = 3


class InvariantError(SynthError):
    """Internal invariant violated."""

    exit_code = 4


class UnsupportedDimError(SynthError):
    """Operation undefined for this matrix dimension."""


class VerificationError(InvariantError):
    """A requested exactness re-check failed: --verify, debug, or a borrowed
    ancilla's return to zero in circuit_to_matrix."""
