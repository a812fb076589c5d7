import argparse
import io
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import deltasynth.cli
from deltasynth.cli import (
    MAX_COEFFICIENT_DIGITS,
    MAX_SQRT2_EXPONENT,
    _stats,
    build_parser,
    draw_circuit,
    format_entry,
    gate_pool,
    main,
    parse_matrix,
    random_unitary,
    render_matrix,
)
from deltasynth.circuits import Circuit, Gate, emit, parse_circuit
import deltasynth.engine
from deltasynth.engine import synthesize, verify_decomposition
from deltasynth import errors
from deltasynth.errors import NotUnitaryError
from deltasynth import linalg
from deltasynth.linalg import (ElementaryOp, ExactMatrix, is_unitary, omega_op, word_matrix,
                               word_product, x_op)
from deltasynth.ring import (OMEGA_POWERS, ZW_DELTA, ZW_ONE, ZW_SQRT2, ZW_ZERO, ZOmega,
                             from_sqrt2_form)
from helpers import domega, identity, random_word_matrix, raises_synth_error, stdin_bytes

IDENTITY_2 = "dim 2\n1 0\n0 1\n"
H_FILE = "dim 2\n1,0,0,0/1 1,0,0,0/1\n1,0,0,0/1 -1,0,0,0/1\n"
NOT_UNITARY = "dim 2\n1 1\n0 1\n"
# int() also reads Unicode digits and "_" separators
NOT_PLAIN_INTEGERS = ["dim \uff12\n1 0\n0 1\n", "dim 1\n\uff11,0,0,0\n",
                      "dim 1\n1,0,0,0/\u0663\n", "dim 1\n1_0,0,0,0/1\n"]


# synth --debug on `gen --qubits 2 --budget 8 --seed 1`
DEBUG_ERR = """\
debug: numerators over sqrt(2)^2
debug: row 1: 0,0,1,0  1,0,0,0  0,0,1,0  1,0,0,0
debug: row 2: 0,0,1,0  -1,0,0,0  0,0,1,0  -1,0,0,0
debug: row 3: 0,0,0,-1  0,0,0,-1  0,0,0,1  0,0,0,1
debug: row 4: 0,0,0,1  0,0,0,-1  0,0,0,-1  0,0,0,1
debug: round 1: k 4 -> 2 via dense4,full_rows (2 mixing ops)
debug: round 2: k 2 -> 0 via double_block,single_block (2 mixing ops)
"""
DEBUG_OUT = """\
# dim 4
# k 4
# rounds 2
# word-length 11
# gates 16
# t-count 2
# ancilla no
qubits 2
W 1
S 0
S 0
CNOT 0 1
S 0
S 0
CNOT 0 1
H 0
CNOT 0 1
S 0
S 1
TDG 1
CNOT 0 1
T 1
CNOT 0 1
H 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseMatrix:
    def test_identity_with_shorthands(self):
        assert parse_matrix(IDENTITY_2) == identity(2)

    def test_sqrt2_form_entries(self):
        m = parse_matrix(H_FILE)
        assert m.rows == ((ZW_ONE, ZW_ONE), (ZW_ONE, -ZW_ONE))
        assert m.e == 1

    def test_comments_and_blanks(self):
        text = "# heading\n\ndim 2\n1 0  # trailing\n\n0 1\n"
        assert parse_matrix(text) == identity(2)

    def test_signed_and_zero_padded_numbers(self):
        assert parse_matrix("dim +1\n+1,-0,+0,0/0\n") == identity(1)
        assert parse_matrix("dim 01\n1,0,0,0/00\n") == identity(1)

    def test_exponent_defaults_to_zero(self):
        m = parse_matrix("dim 1\n1,0,0,0\n")
        assert m == identity(1)

    def test_entries_share_the_largest_exponent(self):
        # 2/sqrt(2)^3 is 1/sqrt(2), and 1 is sqrt(2)/sqrt(2)
        m = parse_matrix("dim 2\n1,0,0,0/1 0\n2,0,0,0/3 1\n")
        assert m.rows == ((ZW_ONE, ZW_ZERO), (ZW_ONE, from_sqrt2_form(0, 1, 0, 0)))
        assert m.e == 1

    @pytest.mark.parametrize("text, line, column", [
        ("dim 2\n1,2/x 0\n0 1\n", 2, 1),
        ("dim 2\n1 1,2,3,4,5/0\n0 1\n", 2, 3),
        ("dim 2\n1 0\n0 1,0,0,0/-1\n", 3, 3),
        ("dim 2\n1 0\n0 q\n", 3, 3),
    ])
    def test_bad_entry_positions(self, text, line, column):
        with raises_synth_error() as exc:
            parse_matrix(text)
        assert exc.value.line == line
        assert exc.value.column == column

    @pytest.mark.parametrize("text", [
        "",
        "# only a comment\n",
        "size 2\n1 0\n0 1\n",
        "dim two\n",
        "dim 5\n",
        "dim 0\n",
        "dim 2 2\n",
        "dim 2\n1 0\n",
        "dim 2\n1 0 0\n0 1 0\n",
        "dim 2\n1 0\n0 1\n1 0\n",
        *NOT_PLAIN_INTEGERS,
    ])
    def test_malformed_files(self, text):
        with raises_synth_error():
            parse_matrix(text)

    @pytest.mark.parametrize("qubits, budget, seed", [
        (1, 20, 0), (1, 35, 1), (2, 20, 2), (2, 45, 3),
    ])
    def test_render_round_trip(self, qubits, budget, seed):
        m = random_unitary(qubits, budget, seed)
        assert parse_matrix(render_matrix(m)) == m

    def test_format_entry_shorthands(self):
        assert format_entry(ZW_ZERO, 0) == "0"
        assert format_entry(ZW_ONE, 0) == "1"
        assert format_entry(ZW_ONE, 1) == "1,0,0,0/1"
        # each entry is printed over its own least power of sqrt(2)
        assert format_entry(ZW_ZERO, 5) == "0"
        assert format_entry(ZOmega.from_int(2), 2) == "1"


class TestSynth:
    def test_identity_empty_circuit(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(IDENTITY_2)
        code, out, _ = run(capsys, "synth", str(path))
        assert code == 0
        assert "# k 0" in out
        assert "# rounds 0" in out
        assert out.rstrip().endswith("qubits 1")

    def test_mixing_gate(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(H_FILE)
        code, out, _ = run(capsys, "synth", str(path), "--elementary", "--verify")
        assert code == 0
        assert "# k 2" in out
        assert "# word: H[1,2]" in out
        assert "# verified exact" in out
        assert out.rstrip().splitlines()[-1] == "H 0"

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_bytes(H_FILE.encode()))
        code, out, _ = run(capsys, "synth", "-")
        assert code == 0
        assert "H 0" in out

    def test_out_file(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text(H_FILE)
        dst = tmp_path / "c.txt"
        code, out, _ = run(capsys, "synth", str(src), "--out", str(dst))
        assert code == 0
        assert out == ""
        assert "H 0" in dst.read_text()

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("dim 2\n1,2/x 0\n0 1\n")
        code, _, err = run(capsys, "synth", str(path))
        assert code == 2
        assert "line 2, column 1" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_not_unitary_exit_3(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(NOT_UNITARY)
        code, _, err = run(capsys, "synth", str(path))
        assert code == 3
        assert "not unitary" in err

    def test_dim_3_two_qubit_circuit(self, capsys, tmp_path):
        """diag(1, i, 1) runs as diag(1, i, 1, 1) on two qubits, level 4 idle."""
        path = tmp_path / "m.txt"
        path.write_text("dim 3\n1 0 0\n0 0,0,1,0/0 0\n0 0 1\n")
        assert run(capsys, "synth", str(path), "--verify") == (0, (
            "# dim 3\n# k 0\n# rounds 0\n# word-length 1\n"
            "# gates 6\n# t-count 3\n# ancilla no\n# verified exact\n"
            "qubits 2\nS 1\nTDG 0\nTDG 1\nCNOT 0 1\nT 1\nCNOT 0 1\n"), "")

    def test_dim_1_global_phase(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("dim 1\n1,0,1,0/1\n")
        assert run(capsys, "synth", str(path), "--verify") == (0, (
            "# dim 1\n# k 0\n# rounds 0\n# word-length 1\n"
            "# note: 1x1 input; circuit is the global phase on one idle qubit\n"
            "# gates 1\n# t-count 0\n# ancilla no\n# verified exact\n"
            "qubits 1\nW 1\n"), "")

    def test_debug_logs_rounds(self, capsys, tmp_path):
        """--debug only logs: the input's numerators and one line per round."""
        path = tmp_path / "m.txt"
        assert run(capsys, "gen", "--qubits", "2", "--budget", "8", "--seed", "1",
                   "--out", str(path))[0] == 0
        verified = DEBUG_OUT.replace("# ancilla no\n", "# ancilla no\n# verified exact\n")
        assert run(capsys, "synth", str(path), "--debug") == (0, DEBUG_OUT, DEBUG_ERR)
        assert run(capsys, "synth", str(path), "--debug", "--verify") == (
            0, verified, DEBUG_ERR)

    def test_word_mismatch_exit_4(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.txt"
        path.write_text(H_FILE)
        monkeypatch.setattr(deltasynth.cli, "verify_decomposition", lambda m, dec: False)
        assert run(capsys, "synth", str(path), "--verify") == (
            4, "", "error: elementary word does not reproduce the input\n")

    def test_circuit_mismatch_exit_4(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.txt"
        path.write_text(H_FILE)
        # the empty word's circuit is the identity, not H
        monkeypatch.setattr(deltasynth.cli, "emit", lambda word, dim: emit((), dim))
        assert run(capsys, "synth", str(path), "--verify") == (
            4, "", "error: circuit does not reproduce the input\n")

    @pytest.mark.parametrize("flags", [["--verify"], ["--debug"], ["--debug", "--verify"]])
    def test_word_multiplied_out_once(self, capsys, tmp_path, monkeypatch, flags):
        path = tmp_path / "m.txt"
        path.write_text(H_FILE)
        calls = []

        def counted(m, dec):
            calls.append(dec)
            return verify_decomposition(m, dec)

        for module in (deltasynth.cli, deltasynth.engine):
            monkeypatch.setattr(module, "verify_decomposition", counted)
        code, out, _ = run(capsys, "synth", str(path), *flags)
        assert code == 0
        assert ("# verified exact" in out) == ("--verify" in flags)
        assert len(calls) == ("--verify" in flags)


class TestDrawCircuit:
    def test_validation(self):
        with raises_synth_error():
            draw_circuit(3, 10, 0)
        with raises_synth_error():
            draw_circuit(0, 10, 0)

    def test_bad_qubits_rejected_before_the_draw(self, monkeypatch):
        class Random:
            def __init__(self, seed):
                pass

            def choice(self, pool):
                pytest.fail("drew a gate for qubits outside {1, 2}")

        monkeypatch.setattr(deltasynth.cli, "random", argparse.Namespace(Random=Random))
        for qubits in (0, 3):
            with raises_synth_error(match="circuits cover 1 or 2 data qubits"):
                draw_circuit(qubits, 10, 0)

    def test_draw_is_deterministic(self):
        assert draw_circuit(2, 40, 7) == draw_circuit(2, 40, 7)

    def test_seeds_differ(self):
        drawn = {draw_circuit(2, 30, seed) for seed in range(10)}
        assert len(drawn) == 10

    def test_circuit_shape(self):
        circuit = draw_circuit(1, 25, 3)
        assert circuit.data_qubits == 1
        assert not circuit.uses_ancilla
        assert len(circuit.gates) == 25
        assert set(circuit.gates) <= set(gate_pool(1))


class TestRandomUnitary:
    @pytest.mark.parametrize("qubits", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_unitarity(self, qubits, seed):
        matrix = random_unitary(qubits, 30, seed)
        assert matrix.dim == 2 ** qubits
        assert is_unitary(matrix)

    def test_zero_budget_is_identity(self):
        assert random_unitary(2, 0, 5) == identity(4)


class TestGen:
    def test_deterministic(self, capsys):
        first = run(capsys, "gen", "--qubits", "2", "--budget", "25", "--seed", "4")
        second = run(capsys, "gen", "--qubits", "2", "--budget", "25", "--seed", "4")
        assert first == second
        assert first[0] == 0

    def test_zero_budget_identity(self, capsys):
        code, out, _ = run(capsys, "gen", "--qubits", "1", "--budget", "0",
                           "--seed", "9")
        assert code == 0
        assert parse_matrix(out) == identity(2)
        assert "gate word: (empty)" in out

    def test_round_trips_through_synth(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        code, _, _ = run(capsys, "gen", "--qubits", "2", "--budget", "30",
                         "--seed", "7", "--out", str(path))
        assert code == 0
        code, _, _ = run(capsys, "synth", str(path), "--verify")
        assert code == 0

    def test_three_qubits_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--qubits", "3", "--budget", "5", "--seed", "0"])
        assert exc.value.code == 2


class TestVerify:
    def make_pair(self, capsys, tmp_path, seed=12):
        matrix = tmp_path / "m.txt"
        circuit = tmp_path / "c.txt"
        run(capsys, "gen", "--qubits", "2", "--budget", "30", "--seed",
            str(seed), "--out", str(matrix))
        run(capsys, "synth", str(matrix), "--out", str(circuit))
        return matrix, circuit

    def test_match(self, capsys, tmp_path):
        matrix, circuit = self.make_pair(capsys, tmp_path)
        code, out, _ = run(capsys, "verify", str(matrix), str(circuit))
        assert code == 0
        assert "exact match" in out

    def test_mutated_circuit_fails(self, capsys, tmp_path):
        matrix, circuit = self.make_pair(capsys, tmp_path)
        lines = circuit.read_text().splitlines()
        target = next(i for i, l in enumerate(lines) if l in ("T 0", "H 0", "S 0"))
        lines[target] = "X 0"
        circuit.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", str(matrix), str(circuit))
        assert code == 1
        assert "mismatch" in err

    def test_dimension_mismatch_fails(self, capsys, tmp_path):
        matrix = tmp_path / "m.txt"
        matrix.write_text(H_FILE)
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 2\nH 0\n")
        code, _, err = run(capsys, "verify", str(matrix), str(circuit))
        assert code == 1
        assert "dimension" in err

    def test_one_by_one_mismatch_names_file_dimension(self, capsys, tmp_path):
        matrix = tmp_path / "m.txt"
        matrix.write_text("dim 1\n1,0,1,0/1\n")
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 2\nH 0\n")
        assert run(capsys, "verify", str(matrix), str(circuit)) == (1, "", (
            "mismatch: circuit acts on dimension 4, matrix has dimension 1"
            " (needs a 1-qubit circuit)\n"))

    def test_three_by_three_is_checked_as_u_plus_one(self, capsys, tmp_path):
        """A 3x3 U needs a 2-qubit circuit equal to diag(U, 1): a CZ, diag(I, -1),
        matches I on levels 1-3 but not on the idle level 4."""
        matrix = tmp_path / "m.txt"
        matrix.write_text("dim 3\n1 0 0\n0 1 0\n0 0 1\n")
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 1\n")
        assert run(capsys, "verify", str(matrix), str(circuit)) == (1, "", (
            "mismatch: circuit acts on dimension 2, matrix has dimension 3"
            " (needs a 2-qubit circuit)\n"))
        circuit.write_text("qubits 2\nH 1\nCNOT 0 1\nH 1\n")
        assert run(capsys, "verify", str(matrix), str(circuit)) == (
            1, "", "mismatch: circuit does not equal the matrix\n")
        circuit.write_text("qubits 2\n")
        assert run(capsys, "verify", str(matrix), str(circuit)) == (0, "exact match\n", "")

    @pytest.mark.parametrize("seed", range(4))  # seeds 0 and 1 borrow the ancilla
    def test_dim_3_synth_output_matches(self, capsys, tmp_path, seed):
        matrix, circuit = tmp_path / "m.txt", tmp_path / "c.txt"
        matrix.write_text(render_matrix(random_word_matrix(3, 12, seed)))
        assert run(capsys, "synth", str(matrix), "--verify", "--out", str(circuit)) == (
            0, "", "")
        assert "\nqubits 2\n" in circuit.read_text()
        assert run(capsys, "verify", str(matrix), str(circuit)) == (0, "exact match\n", "")

    def test_leaked_ancilla_fails(self, capsys, tmp_path):
        matrix = tmp_path / "m.txt"
        matrix.write_text("dim 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 2\nANC_INIT 2\nX 2\nANC_FREE 2\n")
        code, _, err = run(capsys, "verify", str(matrix), str(circuit))
        assert code == 1
        assert "ancilla" in err

    def test_not_unitary_exit_3(self, capsys, tmp_path):
        matrix = tmp_path / "m.txt"
        matrix.write_text(NOT_UNITARY)
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 1\n")
        assert run(capsys, "verify", str(matrix), str(circuit)) == (
            3, "", f"error: matrix in {matrix} is not unitary\n")

    def test_circuit_parse_error_exit_2(self, capsys, tmp_path):
        matrix = tmp_path / "m.txt"
        matrix.write_text(IDENTITY_2)
        circuit = tmp_path / "c.txt"
        circuit.write_text("qubits 1\nQ 0\n")
        code, _, err = run(capsys, "verify", str(matrix), str(circuit))
        assert code == 2
        assert "line 2" in err


NOT_UTF8 = b"dim 2\n1 0\n0 \xff\n"


def assert_one_line_error(result):
    code, _, err = result
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_input_exit_2(capsys, tmp_path, monkeypatch):
    matrix = tmp_path / "m.txt"
    matrix.write_bytes(NOT_UTF8)
    assert_one_line_error(run(capsys, "synth", str(matrix)))

    monkeypatch.setattr("sys.stdin", stdin_bytes(NOT_UTF8))
    assert_one_line_error(run(capsys, "synth", "-"))

    matrix.write_text(IDENTITY_2)
    circuit = tmp_path / "c.txt"
    circuit.write_bytes(b"qubits 1\nH \xfe0\n")
    assert_one_line_error(run(capsys, "verify", str(matrix), str(circuit)))


BOM = "\ufeff".encode()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_leading_bom_is_ignored(capsys, tmp_path, monkeypatch, newline):
    """A matrix or circuit that starts with a UTF-8 byte-order mark reads as
    the same text without it, from a file or from stdin."""
    _, text, _ = run(capsys, "gen", "--qubits", "2", "--budget", "30", "--seed", "7")
    text = text.replace("\n", newline)
    plain, marked = tmp_path / "m.txt", tmp_path / "bom.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    for extra in ([], ["--verify"]):
        expected = run(capsys, "synth", str(plain), *extra)
        assert expected[0] == 0
        assert run(capsys, "synth", str(marked), *extra) == expected
    monkeypatch.setattr("sys.stdin", stdin_bytes(BOM + text.encode()))
    assert run(capsys, "synth", "-") == run(capsys, "synth", str(plain))

    circuit, marked_circuit = tmp_path / "c.txt", tmp_path / "bom_c.txt"
    run(capsys, "synth", str(plain), "--out", str(circuit))
    marked_circuit.write_bytes(BOM + circuit.read_bytes().replace(b"\n", newline.encode()))
    for pair in ((marked, circuit), (plain, marked_circuit)):
        code, out, _ = run(capsys, "verify", *map(str, pair))
        assert code == 0 and "exact match" in out


def test_bom_after_the_first_character_exit_2(capsys, tmp_path):
    """Only one leading byte-order mark is dropped: a second one, or one
    further in, stays in the text and fails to parse, and a file with a
    mark that is not UTF-8 is still rejected as such."""
    matrix = tmp_path / "m.txt"
    for data in (BOM * 2 + IDENTITY_2.encode(), IDENTITY_2.replace("1 0", "\ufeff1 0").encode(),
                 BOM + NOT_UTF8):
        matrix.write_bytes(data)
        result = run(capsys, "synth", str(matrix))
        assert_one_line_error(result)
        assert ("input is not UTF-8 text" in result[2]) == (data == BOM + NOT_UTF8)


LIBRARY_CALLS = {"ExactMatrix": ExactMatrix, "ElementaryOp": ElementaryOp, "Gate": Gate,
                 "Circuit": Circuit, "emit": emit, "word_matrix": word_matrix,
                 "word_product": word_product, "draw_circuit": draw_circuit}


def _call(kind, payload):
    """Hand one malformed input to the call its kind names.  A library call
    takes a tuple payload as its arguments; an int payload is a dimension,
    of an all-ones grid for ExactMatrix and of the empty word for emit."""
    if kind == "matrix":
        parse_matrix(payload)
    elif kind == "circuit":
        parse_circuit(payload)
    elif kind == "ExactMatrix" and isinstance(payload, int):
        ExactMatrix([[ZW_ONE] * payload] * payload)
    elif kind == "emit" and isinstance(payload, int):
        emit([], payload)
    else:
        LIBRARY_CALLS[kind](*payload)


# pytest names a case by its values, but a tuple payload by its position in
# the list, so a row inserted above would rename it: those rows carry fixed
# ids, the names they were first collected under.
@pytest.mark.parametrize("kind, payload, line, column, message", [
    ("matrix", "size 2\n1 0\n0 1\n", 1, 1, "line 1, column 1: expected header 'dim n'"),
    ("matrix", "dim 2 2\n", 1, 1, "line 1, column 1: expected header 'dim n'"),
    ("matrix", "dim two\n", 1, 5, "line 1, column 5: bad dimension 'two'"),
    ("matrix", "dim 5\n", 1, 5, "line 1, column 5: dimension must be 1..4, got 5"),
    pytest.param("matrix", "dim " + "2" * 5000 + "\n", 1, 5,
                 "line 1, column 5: bad dimension '" + "2" * 5000 + "'",
                 id="matrix-dim of 5000 digits"),
    ("matrix", "dim 2\n1 1,2,3,4,5/0\n0 1\n", 2, 3,
     "line 2, column 3: entry must be a,b,c,d/m or 0 or 1, got '1,2,3,4,5/0'"),
    ("matrix", "dim 2\n1 0\n0 1,0,0,x\n", 3, 3,
     "line 3, column 3: entry must use integers, got '1,0,0,x'"),
    ("matrix", "dim 1\n1,0,0,0/\n", 2, 1,
     "line 2, column 1: entry must use integers, got '1,0,0,0/'"),
    ("matrix", "dim 2\n1 0\n0 1,0,0,0/-1\n", 3, 3,
     "line 3, column 3: denominator exponent must be >= 0, got '1,0,0,0/-1'"),
    ("matrix", "dim 1\n  1,0,0,0/4097\n", 2, 3,
     "line 2, column 3: sqrt(2) exponent must be at most 4096, got '1,0,0,0/4097'"),
    ("matrix", "dim 1\n" + "1" * 1001 + ",0,0,0\n", 2, 1,
     "line 2, column 1: entry numbers must have at most 1000 digits, got '" + "1" * 40 + "'"),
    ("matrix", "dim 2\n1 0 0\n0 1 0\n", 2, 1, "line 2, column 1: expected 2 entries per row, got 3"),
    ("matrix", "dim 2\n1 0\n", 0, 0, "expected 2 rows, got 1"),
    ("matrix", "dim 2\n1 0\n0 1\n # more\n 1 0\n", 5, 2,
     "line 5, column 2: content after last matrix row"),
    ("matrix", "", 0, 0, "empty matrix file"),
    ("matrix", "# only a comment\n", 0, 0, "empty matrix file"),
    ("circuit", "qubits 1\nqubits 1\n", 2, 0, "line 2: duplicate qubits header"),
    ("circuit", "qubits 1\nH 0\nqubits 1\n", 3, 0, "line 3: duplicate qubits header"),
    ("circuit", "qubits two\n", 1, 0, "line 1: expected: qubits <1|2>"),
    ("circuit", "qubits\n", 1, 0, "line 1: expected: qubits <1|2>"),
    ("circuit", "\nH 0\nqubits 1\n", 2, 0, "line 2: missing qubits header"),
    ("circuit", "# nothing\n", 0, 0, "missing qubits header"),
    ("circuit", "qubits 1\nRZ 0\n", 2, 0, "line 2: unknown gate 'RZ'"),
    ("circuit", "qubits 1\nH zero\n", 2, 0, "line 2: bad arguments for H"),
    pytest.param("circuit", "qubits 1\nH " + "1" * 5000 + "\n", 2, 0,
                 "line 2: bad arguments for H", id="circuit-H of 5000 digits"),
    ("circuit", "qubits 2\nCNOT 0 0\n", 2, 0, "line 2: CNOT takes two distinct wires"),
    ("circuit", "qubits 1\nW 1 2\n", 2, 0, "line 2: W takes one power argument"),
    ("circuit", "qubits 1\nW 0\n", 2, 0, "line 2: W takes no wires and a power in 1..7"),
    ("circuit", "qubits 1\nH 1\n", 0, 0, "gate H 1 exceeds 1 wires"),
    ("circuit", "qubits 3\n", 1, 0, "line 1: expected: qubits <1|2>"),
    ("circuit", "qubits 0\n", 1, 0, "line 1: expected: qubits <1|2>"),
    ("ExactMatrix", 5, 0, 0, "dimension 5 not supported"),
    ("emit", 5, 0, 0, "no qubit layout for dimension 5"),
    pytest.param("ExactMatrix", ([[ZW_ONE, ZW_ZERO]],), 0, 0, "matrix must be square",
                 id="ExactMatrix-payload29-0-0-matrix must be square"),
    pytest.param("ExactMatrix", ([[ZW_ONE]], -1), 0, 0, "sqrt(2) exponent must be >= 0",
                 id="ExactMatrix-payload30-0-0-sqrt(2) exponent must be >= 0"),
    pytest.param("ElementaryOp", ("omega", 0, 0, 1), 0, 0, "indices are 1-based",
                 id="ElementaryOp-payload31-0-0-indices are 1-based"),
    pytest.param("ElementaryOp", ("omega", 1, 0, 8), 0, 0, "phase power must be 1..7",
                 id="ElementaryOp-payload32-0-0-phase power must be 1..7"),
    pytest.param("ElementaryOp", ("omega", 1, 2, 1), 0, 0, "one-level op takes a single index",
                 id="ElementaryOp-payload33-0-0-one-level op takes a single index"),
    pytest.param("ElementaryOp", ("X", 3, 1), 0, 0, "two-level op needs j < m",
                 id="ElementaryOp-payload34-0-0-two-level op needs j < m"),
    pytest.param("ElementaryOp", ("H", 1, 2, 3), 0, 0, "two-level op takes no power",
                 id="ElementaryOp-payload35-0-0-two-level op takes no power"),
    pytest.param("ElementaryOp", ("Y", 1, 2), 0, 0, "unknown kind 'Y'",
                 id="ElementaryOp-payload36-0-0-unknown kind 'Y'"),
    pytest.param("Gate", ("H", (0,), 2), 0, 0, "H takes no power",
                 id="Gate-payload37-0-0-H takes no power"),
    pytest.param("Circuit", (2, (Gate("ANC_INIT", (1,)),)), 0, 0,
                 "ancilla markers must name the ancilla wire",
                 id="Circuit-payload38-0-0-ancilla markers must name the ancilla wire"),
    pytest.param("emit", ([x_op(1, 3)], 2), 0, 0, "operator X[1,3] exceeds dimension 2",
                 id="emit-payload39-0-0-operator X[1,3] exceeds dimension 2"),
    pytest.param("word_matrix", ([x_op(1, 3)], 2), 0, 0, "op X[1,3] out of range for dimension 2",
                 id="word_matrix-payload40-0-0-op X[1,3] out of range for dimension 2"),
    pytest.param("draw_circuit", (3, 10, 0), 0, 0, "circuits cover 1 or 2 data qubits",
                 id="draw_circuit-payload41-0-0-circuits cover 1 or 2 data qubits"),
    pytest.param("ExactMatrix", ([[ZW_ONE]], 1.5), 0, 0, "sqrt(2) exponent must be an int",
                 id="ExactMatrix-payload43-0-0-sqrt(2) exponent must be an int"),
    pytest.param("ExactMatrix", ([[1]],), 0, 0, "matrix entries must be ZOmega numerators",
                 id="ExactMatrix-payload44-0-0-matrix entries must be ZOmega numerators"),
    pytest.param("ElementaryOp", ("H", 1, 2.5), 0, 0, "indices and power must be ints",
                 id="ElementaryOp-payload45-0-0-indices and power must be ints"),
    pytest.param("Gate", ("H", (0.5,)), 0, 0, "wires must be a tuple of ints",
                 id="Gate-payload46-0-0-wires must be a tuple of ints"),
    pytest.param("Gate", ("H", ("0",)), 0, 0, "wires must be a tuple of ints",
                 id="Gate-payload47-0-0-wires must be a tuple of ints"),
    pytest.param("Gate", ("H", 0), 0, 0, "wires must be a tuple of ints",
                 id="Gate-payload48-0-0-wires must be a tuple of ints"),
    pytest.param("Gate", ("W", (), True), 0, 0, "W takes no wires and a power in 1..7",
                 id="Gate-payload49-0-0-W takes no wires and a power in 1..7"),
    pytest.param("Gate", ("H", (0,), False), 0, 0, "H takes no power",
                 id="Gate-payload50-0-0-H takes no power"),
    pytest.param("Gate", (["H"], (0,)), 0, 0, "unknown gate ['H']",
                 id="Gate-payload51-0-0-unknown gate ['H']"),
    pytest.param("Circuit", (1, ("H 0",)), 0, 0, "circuit gates must be a tuple of Gates",
                 id="Circuit-payload52-0-0-circuit gates must be a tuple of Gates"),
    pytest.param("Circuit", (True, ()), 0, 0, "circuits cover 1 or 2 data qubits",
                 id="Circuit-payload53-0-0-circuits cover 1 or 2 data qubits"),
    pytest.param("ElementaryOp", ("omega", True, 0, 1), 0, 0, "indices and power must be ints",
                 id="ElementaryOp-payload54-0-0-indices and power must be ints"),
    pytest.param("ExactMatrix", ([[ZW_ONE]], True), 0, 0, "sqrt(2) exponent must be an int",
                 id="ExactMatrix-payload55-0-0-sqrt(2) exponent must be an int"),
    pytest.param("emit", ([], True), 0, 0, "no qubit layout for dimension True",
                 id="emit-payload56-0-0-no qubit layout for dimension True"),
    pytest.param("emit", ([], 2.0), 0, 0, "no qubit layout for dimension 2.0",
                 id="emit-payload57-0-0-no qubit layout for dimension 2.0"),
    pytest.param("ExactMatrix", (5,), 0, 0, "matrix rows must be iterable",
                 id="ExactMatrix-payload58-0-0-matrix rows must be iterable"),
    pytest.param("ExactMatrix", ([5],), 0, 0, "matrix rows must be iterable",
                 id="ExactMatrix-payload59-0-0-matrix rows must be iterable"),
    pytest.param("word_matrix", ([omega_op(1, 2)], True), 0, 0, "dimension True not supported",
                 id="word_matrix-payload60-0-0-dimension True not supported"),
    pytest.param("word_matrix", ([], 2.0), 0, 0, "dimension 2.0 not supported",
                 id="word_matrix-payload61-0-0-dimension 2.0 not supported"),
    pytest.param("word_product", ([], True), 0, 0, "dimension True not supported",
                 id="word_product-payload62-0-0-dimension True not supported"),
    pytest.param("word_product", ([], -3), 0, 0, "dimension -3 not supported",
                 id="word_product-payload66-0-0-dimension -3 not supported"),
    pytest.param("word_product", ([], 0), 0, 0, "dimension 0 not supported",
                 id="word_product-payload67-0-0-dimension 0 not supported"),
    pytest.param("word_matrix", ([], -1), 0, 0, "dimension -1 not supported",
                 id="word_matrix-payload68-0-0-dimension -1 not supported"),
])
def test_malformed_input_is_a_synth_error(kind, payload, line, column, message):
    """Each malformed input raises SynthError itself, the exit-2 class, with
    its location and its whole message."""
    with raises_synth_error() as info:
        _call(kind, payload)
    exc = info.value
    assert exc.exit_code == 2
    assert (exc.line, exc.column) == (line, column)
    assert str(exc) == message


@pytest.mark.parametrize("entry, message", [
    ("1,0,0,0/200000", str(MAX_SQRT2_EXPONENT)),
    ("1,0,0,0/" + "9" * 5000, f"{MAX_COEFFICIENT_DIGITS} digits"),
    ("1" * 5000 + ",0,0,0/1", f"{MAX_COEFFICIENT_DIGITS} digits"),
    ("0,0,-" + "7" * 1001 + ",0", f"{MAX_COEFFICIENT_DIGITS} digits"),
    ("x" * 5000, "entry must be a,b,c,d/m"),
    ("1,0,0," + "x" * MAX_COEFFICIENT_DIGITS, "entry must use integers"),
])
def test_entry_limits_exit_2(capsys, tmp_path, entry, message):
    matrix = tmp_path / "m.txt"
    matrix.write_text(f"dim 1\n{entry}\n")
    result = run(capsys, "synth", str(matrix))
    assert_one_line_error(result)
    assert message in result[2]
    assert len(result[2]) < 200


@pytest.mark.parametrize("matrix, circuit", [
    *((text, None) for text in NOT_PLAIN_INTEGERS),
    (IDENTITY_2, "qubits \uff12\n"),
    (IDENTITY_2, "qubits 1\nH 0_0\n"),
    (IDENTITY_2, "qubits 1\nH \u0660\n"),
    (IDENTITY_2, "qubits 1\nW \uff17\n"),
])
def test_only_plain_integers_exit_2(capsys, tmp_path, matrix, circuit):
    matrix_path = tmp_path / "m.txt"
    matrix_path.write_text(matrix)
    if circuit is None:
        assert_one_line_error(run(capsys, "synth", str(matrix_path)))
        return
    circuit_path = tmp_path / "c.txt"
    circuit_path.write_text(circuit)
    assert_one_line_error(run(capsys, "verify", str(matrix_path), str(circuit_path)))


# gen and bench options, each given a value int() reads but plain_int rejects
OPTION_DEFAULTS = {
    "gen": {"--qubits": "1", "--budget": "5", "--seed": "0"},
    "bench": {"--qubits": "1", "--budgets": "5", "--trials": "1", "--seed": "0"},
}


@pytest.mark.parametrize("command, option, value", [
    ("gen", "--qubits", "\uff12"),
    ("gen", "--budget", "1_0"),
    ("bench", "--budgets", "1_0,\uff12"),
    ("bench", "--trials", "\uff13"),
    ("gen", "--seed", "\u0663"),
    ("bench", "--seed", "1_0"),
])
def test_options_take_only_plain_integers(capsys, command, option, value):
    options = {**OPTION_DEFAULTS[command], option: value}
    with pytest.raises(SystemExit) as exc:
        main([command, *(part for item in options.items() for part in item)])
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


# each out-of-range value and the whole message the parser gives for it
OUT_OF_RANGE = {"-1": "must be non-negative", "0": "must be positive",
                "5,-1": "bad budget list '5,-1'"}


@pytest.mark.parametrize("command, option, value", [
    ("gen", "--budget", "-1"),
    ("bench", "--budgets", "5,-1"),
    ("bench", "--trials", "0"),
    ("bench", "--trials", "-1"),
])
def test_options_out_of_range(capsys, command, option, value):
    """Budgets and trial counts are range-checked by the parser alone."""
    options = {**OPTION_DEFAULTS[command], option: value}
    with pytest.raises(SystemExit) as exc:
        main([command, *(part for item in options.items() for part in item)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"argument {option}: {OUT_OF_RANGE[value]}\n")


@pytest.mark.parametrize("command, option, value", [
    ("gen", "--qubits", "\uff12"),
    ("gen", "--seed", "1_0"),
    ("bench", "--qubits", "x"),
    ("bench", "--seed", "\u0663"),
])
def test_integer_options_name_the_bad_value(capsys, command, option, value):
    options = {**OPTION_DEFAULTS[command], option: value}
    with pytest.raises(SystemExit) as exc:
        main([command, *(part for item in options.items() for part in item)])
    assert exc.value.code == 2
    assert f"argument {option}: bad integer {value!r}" in capsys.readouterr().err


def test_parser_built_once(capsys):
    """main builds its parser on first use and reuses it; a usage error
    leaves it as it was."""
    assert build_parser() is build_parser()
    argv = ["gen", "--qubits", "1", "--budget", "5", "--seed", "3"]
    before = run(capsys, *argv)
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--qubits", "3", "--budget", "5", "--seed", "0"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(capsys, *argv) == before


def test_negative_seed_accepted(capsys):
    code, out, _ = run(capsys, "gen", "--qubits", "1", "--budget", "3", "--seed", "-3")
    assert code == 0
    assert "seed=-3" in out


SEED_FILES = [IDENTITY_2.encode(), H_FILE.encode(), NOT_UNITARY.encode(),
              b"dim 1\n1,0,1,0/1\n", b"qubits 1\nH 0\n",
              b"qubits 2\nANC_INIT 2\nCNOT 0 1\nT 1\nANC_FREE 2\n"]


@st.composite
def fuzzed_files(draw):
    """Arbitrary bytes, or a well-formed file with a few byte runs replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = bytearray(draw(st.sampled_from(SEED_FILES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        size = draw(st.integers(min_value=0, max_value=3))
        data[at:at + size] = draw(st.binary(max_size=4))
    return bytes(data)


def run_on_bytes(tmp_dir, argv, *files):
    paths = []
    for i, data in enumerate(files):
        paths.append(tmp_dir / f"in{i}")
        paths[-1].write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, *map(str, paths)])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    assert err.count("\n") == (code != 0) and err.endswith("\n") == (code != 0)
    return code


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(matrix=fuzzed_files())
def test_synth_fuzz(tmp_path, matrix):
    assert run_on_bytes(tmp_path, ["synth", "--verify"], matrix) != 1


@FUZZ
@given(matrix=fuzzed_files(), circuit=fuzzed_files())
@example(matrix=IDENTITY_2.encode(), circuit="qubits ²\n".encode())
def test_verify_fuzz(tmp_path, matrix, circuit):
    code = run_on_bytes(tmp_path, ["verify"], matrix, circuit)
    if code == 1:
        parse_circuit(circuit.decode("utf-8"))  # a mismatch needs a parsed circuit


@FUZZ
@given(dim=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0),
       cell=st.integers(min_value=0, max_value=15),
       change=st.sampled_from(["add", "phase", "sqrt2"]),
       p=st.integers(min_value=0, max_value=7))
def test_perturbed_unitary_exits_3(capsys, tmp_path, dim, seed, cell, change, p):
    u = random_word_matrix(dim, 12, seed)
    rows = [list(row) for row in u.rows]
    i, j = divmod(cell % dim ** 2, dim)
    if change == "add":
        rows[i][j] += OMEGA_POWERS[p] * ZW_SQRT2 ** u.e
    elif change == "phase":
        rows[i][j] = rows[i][j].mul_omega_power(p)
    else:
        rows[i][j] *= ZW_SQRT2
    m = ExactMatrix(rows, u.e)
    assume(not is_unitary(m))
    with pytest.raises(NotUnitaryError):
        synthesize(m)
    path = tmp_path / "m.txt"
    path.write_text(render_matrix(m))
    code, _, err = run(capsys, "synth", str(path))
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")


def test_scaled_unitary_exits_3(capsys, tmp_path):
    # (1 + delta^3) * U has U's residues, so the reduction runs all of U's
    # rounds before the monomial check fails and the Gram check names it
    u = random_unitary(2, 2000, 1)
    c = ZW_ONE + ZW_DELTA ** 3
    m = ExactMatrix([[z * c for z in row] for row in u.rows], u.e)
    dec = synthesize(u)
    assert dec.source_k >= 100
    path = tmp_path / "m.txt"
    path.write_text(render_matrix(m))
    code, out, err = run(capsys, "synth", str(path))
    assert code == 3
    assert out == ""
    assert err == "error: input matrix is not unitary\n"


def test_entries_at_the_limits_parse():
    big = "9" * MAX_COEFFICIENT_DIGITS
    m = parse_matrix(f"dim 1\n-{big},{big},0,0/{MAX_SQRT2_EXPONENT}\n")
    assert domega(m.rows[0][0], m.e) == domega(
        from_sqrt2_form(-int(big), int(big), 0, 0), MAX_SQRT2_EXPONENT)


HOSTILE_PARSE_LIMIT_S = 0.3


def test_hostile_matrix_at_the_limits_is_cheap(capsys, tmp_path):
    # every entry divides by sqrt(2) about 2000 times: the matrix lowers its
    # shared exponent once, not each entry on its own
    big = "1" + "0" * (MAX_COEFFICIENT_DIGITS - 1)
    entry = f"{big},{big},{big},{big}/{MAX_SQRT2_EXPONENT}"
    text = "dim 4\n" + "".join(" ".join([entry] * 4) + "\n" for _ in range(4))
    start = time.perf_counter()
    assert not is_unitary(parse_matrix(text))
    elapsed = time.perf_counter() - start
    assert elapsed < HOSTILE_PARSE_LIMIT_S
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, out, err = run(capsys, "synth", str(path))
    assert code == 3
    assert out == ""
    assert err == "error: input matrix is not unitary\n"


@pytest.mark.parametrize("coefficient", ["0", str(2 ** 3318)], ids=["zero", "two_to_3318"])
def test_common_powers_of_two_leave_at_once(monkeypatch, coefficient):
    # 2^3318 is written out in 999 digits; dividing out 2^2048 with one
    # shift leaves at most one sqrt(2) pass and the pass that fails
    assert len(coefficient) < MAX_COEFFICIENT_DIGITS
    calls = []
    halved = linalg.halved
    monkeypatch.setattr(linalg, "halved", lambda rows: calls.append(1) or halved(rows))
    entry = ",".join([coefficient] * 4) + f"/{MAX_SQRT2_EXPONENT}"
    text = "dim 4\n" + "".join(" ".join([entry] * 4) + "\n" for _ in range(4))
    assert not is_unitary(parse_matrix(text))
    assert len(calls) <= 2


class TestBench:
    def test_mean_is_exact(self):
        # 3/20 = 0.15 rounds half-even to 0.2; a binary float reads 0.1499...
        assert _stats([0] * 19 + [3]) == "0.2 3"
        assert _stats([0] * 19 + [1]) == "0.0 1"
        assert _stats([1, 1, 2]) == "1.3 2"
        assert _stats([7]) == "7.0 7"

    def test_zero_budget_row(self, capsys):
        code, out, _ = run(capsys, "bench", "--qubits", "2", "--budgets", "0",
                           "--trials", "1", "--seed", "3")
        assert code == 0
        rows = out.splitlines()
        assert rows[1].startswith("budget")
        assert rows[2] == "0 0.0 0 0.0 0 0.0 0 0.0 0"

    def test_deterministic(self, capsys):
        args = ("bench", "--qubits", "1", "--budgets", "5,15", "--trials", "3",
                "--seed", "11")
        assert run(capsys, *args) == run(capsys, *args)

    def test_bad_budget_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--budgets", "10,x", "--seed", "0"])
        assert exc.value.code == 2


class TestProcess:
    """`python -m deltasynth` in a child process: exit codes and stderr as a
    shell sees them."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def run_module(self, *argv, env=None, **kwargs):
        env = {**os.environ, "PYTHONPATH": str(self.SRC), **(env or {})}
        return subprocess.run([sys.executable, "-m", "deltasynth", *argv],
                              capture_output=True, text=True, env=env, timeout=120, **kwargs)

    def test_gen_matches_in_process(self, capsys):
        argv = ("gen", "--qubits", "1", "--budget", "3", "--seed", "1")
        result = self.run_module(*argv)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == run(capsys, *argv)[1]

    # a bad file is one error line; a usage error is argparse's usage line
    # and then its one error line
    @pytest.mark.parametrize("command, text, code, error, n_lines", [
        ("synth", "dim 2\n1 0\n0 x\n", 2, "error:", 1),
        ("synth", "dim 2\n1 0\n0 2,0,0,0/0\n", 3, "error:", 1),
        ("tables", IDENTITY_2, 2, "deltasynth: error: argument command: invalid choice: 'tables'", 2),
    ], ids=["malformed", "not_unitary", "tables"])
    def test_synth_error_exits(self, tmp_path, command, text, code, error, n_lines):
        matrix = tmp_path / "m.txt"
        matrix.write_text(text)
        result = self.run_module(command, str(matrix))
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == n_lines and lines[-1].startswith(error)
        assert sum("error:" in line for line in lines) == 1

    # PYTHONUTF8=1 gives stdin's text layer surrogateescape on any host, so
    # bytes that are not UTF-8 are refused on stdin only if the bytes beneath
    # that layer are read and decoded as a file's are
    @pytest.mark.parametrize("data", [b"# caf\xe9\ndim 1\n1\n", b"dim 1\n1,0,0,0/\xe9\n"],
                             ids=["comment", "entry"])
    def test_non_utf8_stdin_exits_as_a_file_does(self, tmp_path, data):
        matrix = tmp_path / "m.txt"
        matrix.write_bytes(data)
        utf8_mode = {"PYTHONUTF8": "1"}
        from_file = self.run_module("synth", str(matrix), env=utf8_mode)
        with matrix.open("rb") as stdin:
            from_stdin = self.run_module("synth", "-", env=utf8_mode, stdin=stdin)
        assert from_file.returncode == from_stdin.returncode == 2
        assert from_stdin.stderr == from_file.stderr
        assert from_stdin.stderr.startswith("error: input is not UTF-8 text: ")
        assert from_stdin.stderr.count("\n") == 1

    def test_closed_stdin_exits_2(self):
        """`deltasynth synth - <&-`: the interpreter starts with no stdin."""
        result = self.run_module("synth", "-", preexec_fn=lambda: os.close(0))
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "error: standard input is closed\n")


def test_readme_names_every_command():
    """The `deltasynth <command>` lines of README's command-line block name
    exactly the parser's subcommands."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in block.splitlines()
                  if line.startswith("deltasynth ")]
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(documented) == sorted(subparsers.choices)


def test_readme_names_every_error_class():
    """README's exit-code paragraph names exactly the classes of errors.py
    that state an exit_code of their own, each with that code."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Exit codes: ", 1)[1].split("\n\n", 1)[0]
    documented = {(name, int(code))
                  for code, name in re.findall(r"(\d) on `(\w+)`", " ".join(paragraph.split()))}
    own = {(name, cls.exit_code) for name, cls in vars(errors).items()
           if isinstance(cls, type) and "exit_code" in vars(cls)}
    assert documented == own


def test_readme_names_are_in_the_package():
    """Every backticked name in README.md with a `_` or a `.`, file names
    aside, occurs as a whole word in the package: a module-qualified name's
    last part in that module, any other name in some module."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in (root / "src" / "deltasynth").glob("*.py")}
    names = {name for name in re.findall(r"`(_*[A-Za-z][\w.]*)`", readme)
             if ("_" in name or "." in name) and not name.endswith((".py", ".md", ".json"))}
    missing = []
    for name in sorted(names):
        module, _, last = name.removeprefix("deltasynth.").rpartition(".")
        if module in sources:
            texts, word = [sources[module]], last
        else:
            texts, word = sources.values(), name
        if not any(re.search(rf"\b{re.escape(word)}\b", text) for text in texts):
            missing.append(name)
    assert names and missing == []
