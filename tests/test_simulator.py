"""The circuit simulator and the word product against the benchmark's
independent reference.

`benchmark/reference.py` simulates circuits on coefficient lists with its own
arithmetic and imports nothing from deltasynth; the program's matrix reaches
it through the matrix file format.
"""

import importlib.util
import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from deltasynth.circuits import (SINGLE_WIRE_GATES, Circuit, Gate, _simulate, apply_gate,
                                 circuit_to_matrix)
from deltasynth.cli import render_matrix
from deltasynth.errors import VerificationError
from deltasynth.linalg import h_op, word_matrix, word_product
from deltasynth.oracle import op_alphabet
from deltasynth.ring import ZW_ONE, ZW_ZERO, divide_by_sqrt2

REFERENCE = Path(__file__).resolve().parents[1] / "benchmark" / "reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("benchmark_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = load_reference()


@st.composite
def circuits(draw):
    """Gate lists on 1 or 2 data qubits, with or without a borrowed ancilla;
    with one, gates may also act on the ancilla wire."""
    qubits = draw(st.sampled_from((1, 2)))
    ancilla = draw(st.booleans())
    reach = qubits + (1 if ancilla and draw(st.booleans()) else 0)
    wire = st.integers(min_value=0, max_value=reach - 1)
    options = [
        st.builds(lambda name, w: Gate(name, (w,)),
                  st.sampled_from(sorted(SINGLE_WIRE_GATES)), wire),
        st.builds(lambda p: Gate("W", (), p), st.integers(min_value=1, max_value=7)),
    ]
    if reach > 1:
        options.append(st.builds(lambda pair: Gate("CNOT", tuple(pair[:2])),
                                 st.permutations(range(reach))))
    if ancilla:
        options.append(st.sampled_from([Gate("ANC_INIT", (qubits,)),
                                        Gate("ANC_FREE", (qubits,))]))
    gates = draw(st.lists(st.one_of(options), max_size=40))
    return Circuit(qubits, ancilla, tuple(gates))


def anc_circuit(*gates):
    return Circuit(1, True, (Gate("ANC_INIT", (1,)), *gates, Gate("ANC_FREE", (1,))))


@settings(max_examples=300, deadline=None)
@given(circuit=circuits())
@example(circuit=anc_circuit(Gate("X", (1,)), Gate("X", (1,))))
@example(circuit=anc_circuit(Gate("H", (1,)), Gate("T", (1,)), Gate("H", (1,))))
@example(circuit=anc_circuit(Gate("H", (1,)), Gate("H", (1,))))
@example(circuit=anc_circuit(Gate("H", (0,)), Gate("CNOT", (0, 1))))
@example(circuit=anc_circuit(Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1))))
def test_matches_reference(circuit):
    check_against_reference(circuit)


def check_against_reference(circuit):
    gates = [(g.name, g.wires, g.power) for g in circuit.gates]
    expected = reference.simulate_circuit(circuit.data_qubits, gates, circuit.uses_ancilla)
    if expected is None:
        with pytest.raises(VerificationError):
            circuit_to_matrix(circuit)
        return
    actual = circuit_to_matrix(circuit)
    assert reference.parse_matrix(render_matrix(actual)) == expected
    if not circuit.uses_ancilla:
        # the shared exponent is the reference's least one
        rows, e = _simulate(circuit.gates, circuit.wire_count)
        assert e == expected.e
        assert e == 0 or any(divide_by_sqrt2(z) is None for row in rows for z in row)


@settings(max_examples=40, deadline=None)
@given(head=circuits(), seed=st.integers(min_value=0))
@example(head=Circuit(1, False, ()), seed=0)
@example(head=Circuit(2, True, ()), seed=1)
def test_long_monomial_runs_match_reference(head, seed):
    """X, CNOT, phases and W only compose basis labels, which meet the rows
    at the end: append an H-free run of 1000 gates on the data wires."""
    rng = random.Random(seed)
    wires = range(head.data_qubits)
    pool = [Gate(name, (w,)) for name in sorted(SINGLE_WIRE_GATES - {"H"}) for w in wires]
    pool += [Gate("W", (), p) for p in range(1, 8)]
    pool += [Gate("CNOT", pair) for pair in permutations(wires, 2)]
    tail = tuple(rng.choice(pool) for _ in range(1000))
    check_against_reference(Circuit(head.data_qubits, head.uses_ancilla, head.gates + tail))


@settings(max_examples=100, deadline=None)
@given(circuit=circuits())
def test_apply_gate_folds_to_simulate(circuit):
    n_wires = circuit.wire_count
    rows, e = _simulate((), n_wires)
    for gate in circuit.gates:
        rows, e = apply_gate(gate, rows, e, n_wires)
    assert (rows, e) == _simulate(circuit.gates, n_wires)


@st.composite
def words(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    return dim, draw(st.lists(st.sampled_from(op_alphabet(dim)), max_size=60))


@settings(max_examples=300, deadline=None)
@given(case=words())
@example(case=(2, [h_op(1, 2)] * 57))
@example(case=(4, [h_op(1, 2)] * 60))
def test_word_product_matches_reference(case):
    dim, word = case
    expected = reference.word_product([(op.kind, op.j, op.m, op.power) for op in word], dim)
    assert reference.parse_matrix(render_matrix(word_matrix(word, dim))) == expected
    # the shared exponent is the reference's least one
    assert word_product(word, dim)[1] == expected.e


def test_exponent_stays_least():
    h = Gate("H", (0,))
    identity = [[ZW_ONE, ZW_ZERO], [ZW_ZERO, ZW_ONE]]
    assert _simulate([h] * 2000, 1) == (identity, 0)
    one = ZW_ONE
    assert _simulate([h] * 2001, 1) == ([[one, one], [one, -one]], 1)
    # H on both wires of two qubits: entries +-1 over sqrt(2)^2
    rows, e = _simulate([h, Gate("H", (1,))] * 1000 + [h], 2)
    assert e == 1
    assert all(z in (ZW_ZERO, one, -one) for row in rows for z in row)


def test_ancilla_columns_only():
    circuit = anc_circuit(Gate("H", (1,)), Gate("H", (1,)), Gate("X", (0,)))
    rows, e = _simulate(circuit.gates, 2, range(0, 4, 2))
    assert e == 0
    assert rows == [[ZW_ZERO, ZW_ONE], [ZW_ZERO, ZW_ZERO],
                    [ZW_ONE, ZW_ZERO], [ZW_ZERO, ZW_ZERO]]
