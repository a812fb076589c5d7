"""Exact synthesis of unitaries over D[w] into elementary-operator words.

The package exports the library API that README.md documents; the modules
hold the rest.
"""

from .circuits import (
    Circuit,
    Gate,
    circuit_to_matrix,
    emit,
    gate_counts,
    parse_circuit,
    render_circuit,
    verify_templates,
)
from .engine import Decomposition, ReductionRound, synthesize, verify_decomposition
from .linalg import ElementaryOp, ExactMatrix

__all__ = [
    "Circuit",
    "Decomposition",
    "ElementaryOp",
    "ExactMatrix",
    "Gate",
    "ReductionRound",
    "circuit_to_matrix",
    "emit",
    "gate_counts",
    "parse_circuit",
    "render_circuit",
    "synthesize",
    "verify_decomposition",
    "verify_templates",
]
