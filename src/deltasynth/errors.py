"""Exception hierarchy.

Each class is an outcome that an exit code or a caller tells apart: malformed
input or a request the tool cannot serve (SynthError), an input that is not
unitary, a broken invariant, and a failed exactness re-check.  An
InvariantError marks a condition the algorithm proves impossible for genuine
unitary inputs: the input lied or the engine has a bug.  No class names the
site that raised it; every raise site has a message of its own.
"""

from __future__ import annotations


class SynthError(Exception):
    """Malformed input to any library call, or a dimension an operation has
    no form for; base class of the package's other errors, and the CLI exits
    with the class's exit_code.  A message about a line of an input file
    starts with `line L, column C: `, or `line L: ` when no column is given."""

    exit_code = 2

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if column:
            message = f"line {line}, column {column}: {message}"
        elif line:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotUnitaryError(SynthError):
    """Input matrix is not exactly unitary."""

    exit_code = 3


class InvariantError(SynthError):
    """Internal invariant violated."""

    exit_code = 4


class VerificationError(InvariantError):
    """A requested exactness re-check failed: --verify, or a borrowed
    ancilla's return to zero in circuit_to_matrix."""
