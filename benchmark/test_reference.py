"""Tests of the benchmark's reference code against hand-derived matrices.

    python3 -m pytest benchmark/test_reference.py
    python3 benchmark/test_reference.py
"""

import random

from inputs import corpus_instances, deep_instances, verify_cases
from reference import (
    RefMatrix,
    parse_circuit,
    parse_matrix,
    render_circuit,
    render_matrix,
    simulate_circuit,
    word_product,
)

ONE, ZERO = (1, 0, 0, 0), (0, 0, 0, 0)
W = (0, 1, 0, 0)
I_UNIT = (0, 0, 1, 0)
SQRT2 = (0, 1, 0, -1)  # w - w^3
MINUS_ONE = (-1, 0, 0, 0)

H_MATRIX = RefMatrix.from_entries([[ONE, ONE], [ONE, MINUS_ONE]], 1)

README_H = """\
# H on one qubit
dim 2
1,0,0,0/1 1,0,0,0/1
1,0,0,0/1 -1,0,0,0/1
"""


def diag(*entries):
    n = len(entries)
    return RefMatrix.from_entries(
        [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)], 0)


def gate(name, wires=(0,), power=0, qubits=1):
    return simulate_circuit(qubits, [(name, wires, power)], False)


def test_single_qubit_gates():
    assert gate("H") == H_MATRIX
    assert gate("S") == diag(ONE, I_UNIT)
    assert gate("T") == diag(ONE, W)
    assert gate("TDG") == diag(ONE, (0, 0, 0, -1))
    assert gate("SDG") == diag(ONE, (0, 0, -1, 0))
    assert gate("X") == RefMatrix.from_entries([[ZERO, ONE], [ONE, ZERO]], 0)
    assert gate("W", (), 1) == diag(W, W)


def test_cnot_and_wire_order():
    cnot = RefMatrix.from_entries(
        [[ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO],
         [ZERO, ZERO, ZERO, ONE], [ZERO, ZERO, ONE, ZERO]], 0)
    assert gate("CNOT", (0, 1), qubits=2) == cnot
    # T on wire 0 (most significant) phases basis states |10> and |11>
    assert gate("T", (0,), qubits=2) == diag(ONE, ONE, W, W)


def test_gate_identities_reduce_exactly():
    hh = simulate_circuit(1, [("H", (0,), 0)] * 2, False)
    assert hh == diag(ONE, ONE) and hh.e == 0
    t8 = simulate_circuit(1, [("T", (0,), 0)] * 8, False)
    assert t8 == diag(ONE, ONE)


def test_least_delta_exponent():
    assert gate("T").least_delta_exponent() == 0
    assert H_MATRIX.least_delta_exponent() == 2
    # HTH = (1/2) [[1+w, 1-w], [1-w, 1+w]]; 1 +- w = delta times a unit
    hth = simulate_circuit(1, [("H", (0,), 0), ("T", (0,), 0), ("H", (0,), 0)], False)
    assert hth.least_delta_exponent() == 3


def test_readme_h_example():
    assert parse_matrix(README_H) == H_MATRIX


def test_matrix_text_round_trip():
    rng = random.Random(5)
    pool = [("H", (0,), 0), ("H", (1,), 0), ("T", (1,), 0), ("S", (0,), 0),
            ("CNOT", (0, 1), 0), ("W", (), 3)]
    mat = simulate_circuit(2, [rng.choice(pool) for _ in range(200)], False)
    assert parse_matrix(render_matrix(mat, ["comment"])) == mat


def test_elementary_ops():
    assert word_product([("H", 1, 2, 0)], 2) == H_MATRIX
    assert word_product([("omega", 2, 0, 1)], 2) == gate("T")
    assert word_product([("X", 1, 2, 0)], 2) == gate("X")
    h13 = RefMatrix.from_entries(
        [[ONE, ZERO, ONE], [ZERO, SQRT2, ZERO], [ONE, ZERO, MINUS_ONE]], 1)
    assert word_product([("H", 1, 3, 0)], 3) == h13
    # left factor first: w[1]^2 H[1,2] is H with its first row times i
    assert word_product([("omega", 1, 0, 2), ("H", 1, 2, 0)], 2) == RefMatrix.from_entries(
        [[I_UNIT, I_UNIT], [ONE, MINUS_ONE]], 1)


def test_ancilla_return_check():
    stuck = [("ANC_INIT", (2,), 0), ("X", (2,), 0), ("ANC_FREE", (2,), 0)]
    assert simulate_circuit(2, stuck, True) is None
    # X T X on a |0> ancilla returns it to |0> with the phase w on every state
    returned = [("ANC_INIT", (2,), 0), ("X", (2,), 0), ("T", (2,), 0),
                ("X", (2,), 0), ("ANC_FREE", (2,), 0)]
    assert simulate_circuit(2, returned, True) == diag(W, W, W, W)


def test_circuit_text_round_trip():
    gates = [("H", (0,), 0), ("CNOT", (1, 0), 0), ("W", (), 5), ("TDG", (1,), 0)]
    text = "# k 3\n# gates 4\n" + render_circuit(2, gates)
    qubits, parsed, header = parse_circuit(text)
    assert (qubits, parsed) == (2, gates)
    assert header == {"k": "3", "gates": "4"}


def test_inputs_depend_only_on_seed():
    assert [i.text for i in deep_instances(3)] == [i.text for i in deep_instances(3)]
    assert [i.text for i in deep_instances(3)] != [i.text for i in deep_instances(4)]
    a, b = corpus_instances(3), corpus_instances(4)
    assert len(a) == len(b) and [i.dim for i in a] == [i.dim for i in b]
    cases = [(c.name, c.expected_exit, c.known_fault) for c in verify_cases(3)]
    assert cases == [(c.name, c.expected_exit, c.known_fault) for c in verify_cases(4)]


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name} ok")
