"""Deterministic test-instance generation and exhaustive word search.

Instances are drawn as Clifford+T gate words, so their exact unitaries are
known to be in range of the reduction by construction.  Enumeration and
breadth-first gate search provide independent ground truth for short words:
everything the generators can reach in a few steps must round-trip.  Both
searches key their frontiers by exact products, linalg's ExactMatrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .circuits import Circuit, Gate, apply_gate, circuit_to_matrix
from .linalg import (
    ElementaryOp,
    ExactMatrix,
    apply_elementary,
    h_op,
    omega_op,
    x_op,
)

ONE_QUBIT_POOL = (
    Gate("H", (0,)),
    Gate("S", (0,)),
    Gate("T", (0,)),
    Gate("W", (), 1),
)

TWO_QUBIT_POOL = (
    Gate("H", (0,)),
    Gate("H", (1,)),
    Gate("S", (0,)),
    Gate("S", (1,)),
    Gate("T", (0,)),
    Gate("T", (1,)),
    Gate("CNOT", (0, 1)),
    Gate("CNOT", (1, 0)),
    Gate("W", (), 1),
)


@dataclass(frozen=True)
class InstanceSpec:
    """Reproducible recipe for one random unitary."""

    qubits: int
    gate_budget: int
    seed: int

    def __post_init__(self) -> None:
        if self.qubits not in (1, 2):
            raise ValueError("instances cover 1 or 2 qubits")
        if self.gate_budget < 0:
            raise ValueError("gate budget must be non-negative")


def gate_pool(qubits: int) -> tuple[Gate, ...]:
    return ONE_QUBIT_POOL if qubits == 1 else TWO_QUBIT_POOL


def draw_circuit(spec: InstanceSpec) -> Circuit:
    rng = random.Random(spec.seed * 1000003 + spec.gate_budget * 101 + spec.qubits)
    pool = gate_pool(spec.qubits)
    gates = tuple(rng.choice(pool) for _ in range(spec.gate_budget))
    return Circuit(spec.qubits, False, gates)


def random_unitary(spec: InstanceSpec) -> ExactMatrix:
    return circuit_to_matrix(draw_circuit(spec))


def op_alphabet(dim: int) -> list[ElementaryOp]:
    """Every elementary operator on the given dimension."""
    ops = [omega_op(j, p) for j in range(1, dim + 1) for p in range(1, 8)]
    for j in range(1, dim + 1):
        for m in range(j + 1, dim + 1):
            ops.append(h_op(j, m))
            ops.append(x_op(j, m))
    return ops


def enumerate_words(dim: int, max_len: int) -> dict[ExactMatrix, tuple[ElementaryOp, ...]]:
    """All products of at most max_len elementary operators, with a shortest
    left-to-right word for each.  Grows fast; intended for max_len <= 3."""
    ops = op_alphabet(dim)
    found = {ExactMatrix.identity(dim): ()}
    frontier = dict(found)
    for _ in range(max_len):
        fresh = {}
        for m, word in frontier.items():
            for op in ops:
                grown = ExactMatrix(*apply_elementary(op, m.rows, m.e))
                if grown not in found and grown not in fresh:
                    fresh[grown] = (op, *word)
        found.update(fresh)
        frontier = fresh
    return found


def search_gate_word(target: ExactMatrix, max_len: int,
                     pool: Sequence[Gate] | None = None) -> tuple[Gate, ...] | None:
    """Shortest gate word (in application order) whose circuit equals target.

    Breadth-first over the pool, deduplicating by exact product; None when no
    word of length at most max_len reaches the target.
    """
    if target.dim not in (2, 4):
        raise ValueError("search covers 1- or 2-qubit targets")
    qubits = 1 if target.dim == 2 else 2
    if pool is None:
        pool = gate_pool(qubits)
    identity = ExactMatrix.identity(target.dim)
    if target == identity:
        return ()
    seen = {identity}
    frontier = {identity: ()}
    for _ in range(max_len):
        fresh = {}
        for m, word in frontier.items():
            for gate in pool:
                grown = ExactMatrix(*apply_gate(gate, m.rows, m.e, qubits))
                if grown in seen:
                    continue
                seen.add(grown)
                if grown == target:
                    return (*word, gate)
                fresh[grown] = (*word, gate)
        frontier = fresh
    return None
