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

from deltasynth import circuits as circuits_module
from deltasynth.circuits import (_LEAST_EVERY, _PRODUCT_TERMS, SINGLE_WIRE_GATES, Circuit, Gate,
                                 _fold, _simulate, circuit_to_matrix, parse_circuit,
                                 render_circuit)
from deltasynth.cli import render_matrix
from deltasynth.errors import VerificationError
from deltasynth.linalg import h_op, least, word_matrix, word_product
from deltasynth.ring import ZW_ONE, ZW_ZERO, divide_by_sqrt2
from helpers import op_alphabet, raises_synth_error

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
    with one, an ANC_INIT marker lies somewhere among the gates, and gates
    may also act on the ancilla wire."""
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
    if ancilla:
        gates.insert(draw(st.integers(min_value=0, max_value=len(gates))),
                     Gate("ANC_INIT", (qubits,)))
    return Circuit(qubits, tuple(gates))


def anc_circuit(*gates):
    return Circuit(1, (Gate("ANC_INIT", (1,)), *gates, Gate("ANC_FREE", (1,))))


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
@example(head=Circuit(1, ()), seed=0)
@example(head=Circuit(2, (Gate("ANC_INIT", (2,)),)), seed=1)
def test_long_monomial_runs_match_reference(head, seed):
    """X, CNOT, phases and W only compose basis labels, which meet the rows
    at the end: append an H-free run of 1000 gates on the data wires."""
    rng = random.Random(seed)
    wires = range(head.data_qubits)
    pool = [Gate(name, (w,)) for name in sorted(SINGLE_WIRE_GATES - {"H"}) for w in wires]
    pool += [Gate("W", (), p) for p in range(1, 8)]
    pool += [Gate("CNOT", pair) for pair in permutations(wires, 2)]
    tail = tuple(rng.choice(pool) for _ in range(1000))
    check_against_reference(Circuit(head.data_qubits, head.gates + tail))


@settings(max_examples=200, deadline=None)
@given(circuit=circuits())
def test_text_round_trip(circuit):
    """The ancilla is the ANC_INIT marker, which the text format keeps."""
    assert parse_circuit(render_circuit(circuit)) == circuit


@settings(max_examples=100, deadline=None)
@given(circuit=circuits(), at=st.integers(min_value=0))
def test_ancilla_wire_needs_its_marker(circuit, at):
    """A gate on wire data_qubits without an ANC_INIT marker lies past the
    circuit's wires."""
    gates = [g for g in circuit.gates if g.name != "ANC_INIT"]
    gates.insert(at % (len(gates) + 1), Gate("H", (circuit.data_qubits,)))
    with raises_synth_error(match=f"exceeds {circuit.data_qubits} wires"):
        Circuit(circuit.data_qubits, tuple(gates))


@settings(max_examples=100, deadline=None)
@given(circuit=circuits())
def test_gate_by_gate_fold_matches_simulate(circuit):
    n_wires = circuit.wire_count
    rows, e = _simulate((), n_wires)
    for gate in circuit.gates:
        rows, e = _fold((gate,), rows, e, n_wires)
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


DATA_GATES = st.one_of(
    st.builds(lambda name, w: Gate(name, (w,)),
              st.sampled_from(sorted(SINGLE_WIRE_GATES)), st.sampled_from((0, 1))),
    st.builds(lambda p: Gate("W", (), p), st.integers(min_value=1, max_value=7)),
    st.sampled_from([Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0))]),
)


@st.composite
def block_circuits(draw):
    """Two data qubits and a borrowed ancilla: random data-wire gates around
    the odd-d relative-phase Toffoli blocks.  Every piece holds an H, so the
    fold crosses at least three batches of `least`."""
    pieces = draw(st.lists(st.tuples(st.lists(DATA_GATES, max_size=3), st.sampled_from((0, 1)),
                                     st.sampled_from((None, 1, 3, 5, 7))),
                           min_size=3 * _LEAST_EVERY, max_size=4 * _LEAST_EVERY))
    gates = []
    for data, wire, d in pieces:
        gates += [*data, Gate("H", (wire,)), *_PRODUCT_TERMS.get(d, ())]
    return Circuit(2, (Gate("ANC_INIT", (2,)), *gates, Gate("ANC_FREE", (2,))))


def batched(*gates):
    """An ancilla circuit with gates between two runs of data-wire Hs that
    cross batch boundaries of `least`."""
    run = (Gate("H", (0,)), Gate("T", (0,))) * (3 * _LEAST_EVERY // 2)
    return anc_circuit(*run, *gates, *run)


@settings(max_examples=25, deadline=None)
@given(circuit=block_circuits())
# (0, w y): the ancilla's zero row is on top and the nonzero row turned by w
@example(circuit=batched(Gate("X", (1,)), Gate("T", (1,)), Gate("H", (1,)), Gate("H", (1,)),
                         Gate("TDG", (1,)), Gate("X", (1,))))
# (x, 0), then a full mix
@example(circuit=batched(Gate("T", (0,)), Gate("H", (1,)), Gate("X", (0,)), Gate("H", (1,))))
# the ancilla's row turns nonzero and returns to zero
@example(circuit=batched(Gate("H", (1,)), Gate("T", (1,)), Gate("TDG", (1,)), Gate("H", (1,))))
def test_ancilla_blocks_match_reference(circuit):
    check_against_reference(circuit)
    # the ancilla returned, so its rows are zero and e is the data block's least one
    n_wires = circuit.wire_count
    _, e = _simulate(circuit.gates, n_wires, range(0, 1 << n_wires, 2))
    gates = [(g.name, g.wires, g.power) for g in circuit.gates]
    assert e == reference.simulate_circuit(circuit.data_qubits, gates, True).e


@settings(max_examples=50, deadline=None)
@given(circuit=st.one_of(circuits(), block_circuits()))
def test_fold_changes_no_row(circuit):
    """No row is changed in place: rows given as tuples fold to what the
    same rows given as lists fold to."""
    n_wires = circuit.wire_count
    size = 1 << n_wires
    cols = range(0, size, 2) if circuit.uses_ancilla else range(size)
    rows = tuple(tuple(ZW_ONE if i == j else ZW_ZERO for j in cols) for i in range(size))
    assert (_fold(circuit.gates, rows, 0, n_wires)
            == _fold(circuit.gates, [list(row) for row in rows], 0, n_wires))


def test_least_sees_live_rows_of_bounded_size(monkeypatch):
    """`least` runs after every _LEAST_EVERY Hs at most, so the numerators
    stay within half a batch of bits of their least size and a long circuit
    costs linear time."""
    bits = []

    def spy(rows, e):
        bits.append(max(abs(c).bit_length() for row in rows for z in row
                        for c in (z.a, z.b, z.c, z.d)))
        return least(rows, e)

    monkeypatch.setattr(circuits_module, "least", spy)
    h, t = Gate("H", (0,)), Gate("T", (0,))
    # least numerators of (H T)^2000 reach 500 bits; normalizing only at the
    # end would hand `least` 1000
    assert _simulate([h, t] * 2000, 1)[1] == 1001
    assert max(bits) <= (1001 + _LEAST_EVERY) // 2 + 4
    bits.clear()
    assert _simulate([h] * 2000, 1)[1] == 0
    assert max(bits) <= _LEAST_EVERY // 2 + 2
    # the ancilla rows are zero before the first H and after the second
    circuit = anc_circuit(h, Gate("H", (1,)), Gate("T", (1,)), Gate("TDG", (1,)), Gate("H", (1,)))
    _simulate(circuit.gates, 2, range(0, 4, 2))
    assert bits
