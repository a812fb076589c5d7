import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import deltasynth.circuits
from deltasynth.circuits import (
    _INVERSE,
    Circuit,
    Gate,
    _lowered,
    _lowered_diagonal,
    _push,
    circuit_target,
    circuit_to_matrix,
    emit,
    gate_counts,
    parse_circuit,
    render_circuit,
    verify_templates,
)
from deltasynth.errors import InvariantError, VerificationError
from deltasynth.engine import synthesize
from deltasynth.linalg import ExactMatrix, h_op, omega_op, word_matrix, x_op
from deltasynth.ring import OMEGA_POWERS, ZW_OMEGA, ZW_SQRT2, ZW_ZERO
from deltasynth.cli import random_unitary
from helpers import op_alphabet as alphabet, random_word, random_word_matrix, raises_synth_error
from test_acceptance import corpus_specs


class TestGate:
    def test_str_forms(self):
        assert str(Gate("H", (0,))) == "H 0"
        assert str(Gate("CNOT", (0, 1))) == "CNOT 0 1"
        assert str(Gate("W", (), 3)) == "W 3"
        assert str(Gate("ANC_INIT", (2,))) == "ANC_INIT 2"

    def test_validation(self):
        with raises_synth_error():
            Gate("Y", (0,))
        with raises_synth_error():
            Gate("W", (0,), 1)
        with raises_synth_error():
            Gate("W", (), 0)
        with raises_synth_error():
            Gate("W", (), 8)
        with raises_synth_error():
            Gate("CNOT", (1, 1))
        with raises_synth_error():
            Gate("CNOT", (0,))
        with raises_synth_error():
            Gate("H", (0, 1))
        with raises_synth_error():
            Gate("H", (0,), power=2)
        with raises_synth_error():
            Gate("H", (-1,))


class TestCircuit:
    def test_wire_bound(self):
        with raises_synth_error():
            Circuit(1, (Gate("H", (1,)),))
        with raises_synth_error():
            Circuit(3, ())

    def test_ancilla_markers_checked(self):
        # without ANC_INIT the circuit has no ancilla wire
        with raises_synth_error(match="exceeds 2 wires"):
            Circuit(2, (Gate("ANC_FREE", (2,)),))
        with raises_synth_error(match="must name the ancilla wire"):
            Circuit(2, (Gate("ANC_INIT", (1,)),))

    def test_shape_properties(self):
        circ = Circuit(2, (Gate("ANC_INIT", (2,)), Gate("ANC_FREE", (2,))))
        assert circ.uses_ancilla
        assert circ.wire_count == 3
        assert Circuit(2, ()).wire_count == 2


class TestTemplates:
    def test_all_templates_exact(self):
        verify_templates()

    @pytest.mark.parametrize("index, other", [(0, 1), (4, 7), (8, 10)])
    def test_wrong_word_is_rejected(self, monkeypatch, index, other):
        # controlled-S against controlled-Sdg's word, the d = 1 relative-phase
        # Toffoli block against the d = 7 block's, the H[1,2] H[3,4] pair
        # block against H[1,4] H[2,3]
        templates = deltasynth.circuits._TEMPLATES
        name, gates, _, n_wires = templates[index]
        wrong = ((name, gates, templates[other][2], n_wires),)
        monkeypatch.setattr(deltasynth.circuits, "_TEMPLATES", wrong)
        with pytest.raises(InvariantError,
                           match=f"^{name} template does not match its word$") as excinfo:
            verify_templates()
        assert excinfo.type is InvariantError


class TestLowering:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_every_elementary_op(self, dim):
        for op in alphabet(dim):
            circ = emit([op], dim)
            assert circuit_to_matrix(circ) == word_matrix([op], dim)

    def test_odd_phase_borrows_ancilla(self):
        circ = emit([omega_op(1, 1)], 4)
        assert circ.uses_ancilla
        assert circ.gates[0] == Gate("ANC_INIT", (2,))
        assert circ.gates[-1] == Gate("ANC_FREE", (2,))

    @pytest.mark.parametrize("power", [2, 4, 6])
    def test_even_phase_stays_on_data(self, power):
        for j in range(1, 5):
            circ = emit([omega_op(j, power)], 4)
            assert not circ.uses_ancilla

    def test_one_qubit_never_uses_ancilla(self):
        for op in alphabet(2):
            assert not emit([op], 2).uses_ancilla

    def test_cached_lowering_matches_uncached(self):
        rng = random.Random(5)
        for dim in (2, 4):
            qubits = 1 if dim == 2 else 2
            phases = [op for op in alphabet(dim) if op.kind == "omega"]
            for op in alphabet(dim):
                if op.kind != "omega":
                    circ = emit([op], dim)
                    assert circ.gates == _lowered.__wrapped__(op, qubits)
                    assert not circ.uses_ancilla
            for _ in range(100):
                run = [rng.choice(phases) for _ in range(rng.randrange(1, 12))]
                powers = [0] * dim
                for op in run:
                    powers[op.j - 1] += op.power
                gates = _lowered_diagonal(tuple(p % 8 for p in powers))
                # the x0 x1 term is odd exactly when the powers add up odd
                used = dim == 4 and sum(powers) % 2 == 1
                if used:
                    gates = (Gate("ANC_INIT", (2,)), *gates, Gate("ANC_FREE", (2,)))
                circ = emit(run, dim)
                assert circ.gates == gates
                assert circ.uses_ancilla == used
        # dimensions 2 and 4 have 2 and 12 two-level ops, 64 and 4096 diagonals
        assert _lowered.cache_info().currsize <= 2 + 12
        assert _lowered_diagonal.cache_info().currsize <= 64 + 4096


def inverse_pairs(circuit):
    """Gate pairs that cancel: inverses on the same wires with only gates on
    other wires, or W, between them."""
    pairs = []
    for i, g in enumerate(circuit.gates):
        if g.name not in _INVERSE:
            continue
        for h in circuit.gates[i + 1:]:
            if h.wires == g.wires and _INVERSE[g.name] == h.name:
                pairs.append((g, h))
            if set(h.wires) & set(g.wires):
                break
    return pairs


@st.composite
def phase_run_words(draw):
    """Words of long phase runs between single two-level ops."""
    dim = draw(st.sampled_from([2, 4]))
    phases = [op for op in alphabet(dim) if op.kind == "omega"]
    mixes = [op for op in alphabet(dim) if op.kind != "omega"]
    word = []
    for _ in range(draw(st.integers(1, 5))):
        word += draw(st.lists(st.sampled_from(phases), max_size=30))
        word += draw(st.lists(st.sampled_from(mixes), max_size=2))
    return dim, word


class TestDiagonals:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_every_diagonal_exact(self, dim):
        for powers in product(range(8), repeat=dim):
            word = [omega_op(j, p) for j, p in enumerate(powers, 1) if p]
            assert circuit_to_matrix(emit(word, dim)) == word_matrix(word, dim)

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_odd_product_term_costs_nine_t(self, d):
        counts = gate_counts(emit([omega_op(4, d)], 4))
        assert counts["t_count"] == 9
        assert counts["uses_ancilla"]

    def test_controlled_z_costs_no_t(self):
        assert gate_counts(emit([omega_op(4, 4)], 4)) == {
            "total": 3, "t_count": 0, "uses_ancilla": False}

    @settings(max_examples=60, deadline=None)
    @given(phase_run_words())
    def test_long_phase_runs_exact(self, dim_word):
        dim, word = dim_word
        circ = emit(word, dim)
        assert circuit_to_matrix(circ) == word_matrix(word, dim)
        assert inverse_pairs(circ) == []


class TestCancellation:
    def test_repeated_swap_cancels(self):
        assert emit([x_op(1, 2), x_op(1, 2)], 4).gates == ()

    def test_inverse_cancels_across_other_wires(self):
        # T on wire 1 sits between the two Hs on wire 0 and commutes with them
        body = [Gate("H", (0,)), Gate("T", (1,))]
        _push(body, [Gate("H", (0,))])
        assert body == [Gate("T", (1,))]
        # a gate on a shared wire blocks the look-back
        body = [Gate("H", (0,)), Gate("CNOT", (0, 1))]
        _push(body, [Gate("H", (0,))])
        assert body == [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("H", (0,))]
        # W, the only gate without wires, is passed
        body = [Gate("S", (1,)), Gate("W", (), 3), Gate("T", (0,))]
        _push(body, [Gate("SDG", (1,))])
        assert body == [Gate("W", (), 3), Gate("T", (0,))]

    def test_no_inverse_pair_in_corpus(self):
        for spec in corpus_specs():
            circ = emit(synthesize(random_unitary(*spec)).word, 2 ** spec[0])
            assert inverse_pairs(circ) == [], spec


class TestEmit:
    def test_temporal_order_reverses_word(self):
        circ = emit([h_op(1, 2), omega_op(2, 1)], 2)
        assert circ.gates == (Gate("T", (0,)), Gate("H", (0,)))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_words_round_trip(self, dim):
        rng = random.Random(11 * dim)
        for _ in range(25):
            word = random_word(dim, rng.randrange(1, 20), rng)
            circ = emit(word, dim)
            assert circuit_to_matrix(circ) == word_matrix(word, dim)

    def test_empty_word(self):
        circ = emit([], 4)
        assert circ.gates == ()
        assert circuit_to_matrix(circ) == word_matrix([], 4)

    def test_unsupported_dim(self):
        with raises_synth_error(match="no qubit layout for dimension 5"):
            emit([], 5)
        with raises_synth_error(match="no qubit layout for dimension 5"):
            emit([omega_op(1, 1)], 5)

    def test_dim_3_range_is_three_levels(self):
        """A 3x3 word runs on four levels, but level 4 is not its own."""
        for op in (x_op(3, 4), omega_op(4, 1)):
            with raises_synth_error(match="exceeds dimension 3"):
                emit([op], 3)

    def test_dim_3_runs_as_u_plus_one(self):
        """A 3x3 U lowers on two qubits to diag(U, 1), level 4 idle, and borrows
        the ancilla exactly when det U is an odd power of w."""
        for seed in range(300):
            u = random_word_matrix(3, 1 + seed % 12, seed)
            word = synthesize(u).word
            circ = emit(word, 3)
            # the word touches levels 1-3 only, so on four levels it is diag(U, 1)
            assert circuit_target(u) == word_matrix(word, 4)
            assert circ.data_qubits == 2 and circuit_to_matrix(circ) == circuit_target(u)
            (a, b, c), (d, e, f), (g, h, i) = u.rows
            det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            power = next(p for p in range(8) if det == OMEGA_POWERS[p] * ZW_SQRT2 ** (3 * u.e))
            assert circ.uses_ancilla == (power % 2 == 1)

    def test_op_outside_dim(self):
        with raises_synth_error():
            emit([h_op(1, 4)], 2)

    @pytest.mark.parametrize("power", range(8))
    def test_dim_1_is_one_idle_qubit(self, power):
        circ = emit([omega_op(1, power)] if power else [], 1)
        assert render_circuit(circ) == "qubits 1\n" + (f"W {power}\n" if power else "")
        z = ZW_OMEGA ** power
        assert circuit_to_matrix(circ) == ExactMatrix([[z, ZW_ZERO], [ZW_ZERO, z]])

    def test_counts(self):
        assert gate_counts(emit([omega_op(2, 2)], 2)) == {
            "total": 1, "t_count": 0, "uses_ancilla": False}
        assert gate_counts(emit([h_op(3, 4)], 4)) == {
            "total": 7, "t_count": 2, "uses_ancilla": False}


def phase_sum(word):
    return sum(op.power for op in word if op.kind == "omega")


def applied(*ops):
    """The word whose ops act in the given order."""
    return list(reversed(ops))


class TestOddDeterminant:
    """A phase run with an odd sum of powers leaves w^1 owed on one level; only
    a debt still owed at the end borrows the ancilla."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(alphabet(4)), min_size=1, max_size=12))
    def test_ancilla_iff_odd_determinant(self, word):
        circ = emit(word, 4)
        assert circuit_to_matrix(circ) == word_matrix(word, 4)
        assert circ.uses_ancilla == (phase_sum(word) % 2 == 1)
        assert [g.name for g in circ.gates].count("W") <= 1

    @pytest.mark.parametrize("word, odd", [
        # the debt lands on level 3 or 4, and X[3,4] moves it to the other
        (applied(omega_op(1, 1), h_op(1, 2), x_op(3, 4), omega_op(2, 3)), False),
        # the debt lands on level 1 or 2, and an even diagonal moves it off
        # before H[1,2]
        (applied(omega_op(3, 1), h_op(3, 4), h_op(1, 2), omega_op(1, 1)), False),
        # the debt moves through a chain of Hs and Xs
        (applied(omega_op(4, 5), x_op(3, 4), h_op(1, 2), x_op(3, 4), h_op(2, 4),
                 h_op(1, 3), omega_op(2, 3)), False),
        # owed at the end of the word, without and after moves
        (applied(omega_op(1, 1), h_op(1, 2)), True),
        (applied(omega_op(1, 3), x_op(1, 3), h_op(2, 4), x_op(1, 2)), True),
        # a lone odd run between two ops
        (applied(h_op(1, 2), omega_op(3, 1), h_op(1, 2)), True),
    ])
    def test_owed_phase(self, word, odd):
        circ = emit(word, 4)
        assert circuit_to_matrix(circ) == word_matrix(word, 4)
        assert circ.uses_ancilla == odd
        # one relative-phase Toffoli block holds the only Hs on the ancilla
        assert circ.gates.count(Gate("H", (2,))) == (4 if odd else 0)


PAIRS = [((1, 2), (3, 4), ["H 1"]), ((1, 3), (2, 4), ["H 0"]),
         ((1, 4), (2, 3), ["CNOT 0 1", "H 0", "CNOT 0 1"])]


class TestHadamardPairs:
    """H[a,b] then H[c,d] on the other two levels lowers as one T-free
    Clifford when the diagonal it leaves before the pair adds up even."""

    @pytest.mark.parametrize("first, second, block", PAIRS)
    def test_bare_pair_is_its_block(self, first, second, block):
        for ab, cd in ((first, second), (second, first)):
            circ = emit(applied(h_op(*ab), h_op(*cd)), 4)
            assert [str(g) for g in circ.gates] == block
            assert gate_counts(circ)["t_count"] == 0

    @pytest.mark.parametrize("first, second", [pair[:2] for pair in PAIRS])
    def test_phases_between_commute_out(self, first, second):
        phases = {1: 3, 2: 3, 3: 5, 4: 5}
        between = [omega_op(j, p) for j, p in phases.items()]
        word = applied(h_op(*first), *between, h_op(*second))
        circ = emit(word, 4)
        assert circuit_to_matrix(circ) == word_matrix(word, 4)
        assert not circ.uses_ancilla
        # the phases on the first pair's levels act after both Hs, the others
        # before: the same circuit
        moved = applied(*(op for op in between if op.j not in first),
                        h_op(*first), h_op(*second),
                        *(op for op in between if op.j in first))
        assert circ == emit(moved, 4)

    def test_odd_diagonal_before_pair_blocks_it(self):
        # w[3]^1 would act before the pair and adds up odd: two controlled-Hs
        word = applied(h_op(1, 2), omega_op(3, 1), h_op(3, 4), omega_op(1, 1))
        circ = emit(word, 4)
        assert circuit_to_matrix(circ) == word_matrix(word, 4)
        assert not circ.uses_ancilla
        hadamards = sum(gate.name == "H" for gate in circ.gates)
        assert (hadamards, gate_counts(circ)["t_count"]) == (4, 7)

    def test_owed_phase_absorbed_by_odd_phases(self):
        # H[3,4] leaves w^1 owed on level 1; w[3]^1 before the next pair makes
        # it even, so the pair fuses and nothing is owed at the end
        word = applied(omega_op(1, 1), h_op(3, 4), h_op(1, 2), omega_op(3, 1),
                       h_op(3, 4))
        circ = emit(word, 4)
        assert circuit_to_matrix(circ) == word_matrix(word, 4)
        assert not circ.uses_ancilla
        assert [str(g) for g in circ.gates[-2:]] == ["TDG 1", "H 1"]
        assert gate_counts(circ)["t_count"] == 3


class TestAncillaDiscipline:
    def test_leak_detected(self):
        leaky = Circuit(2, (Gate("ANC_INIT", (2,)), Gate("X", (2,)),
                            Gate("ANC_FREE", (2,))))
        with pytest.raises(VerificationError):
            circuit_to_matrix(leaky)

    def test_idle_ancilla_extracts_data_block(self):
        with_anc = Circuit(2, (Gate("ANC_INIT", (2,)), Gate("H", (0,)),
                               Gate("ANC_FREE", (2,))))
        without = Circuit(2, (Gate("H", (0,)),))
        assert circuit_to_matrix(with_anc) == circuit_to_matrix(without)


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(7)
        for dim in (2, 4):
            for _ in range(10):
                word = random_word(dim, rng.randrange(1, 15), rng)
                circ = emit(word, dim)
                assert parse_circuit(render_circuit(circ)) == circ

    def test_comments_and_blanks_skipped(self):
        circ = parse_circuit("# leading note\n\nqubits 1\nH 0  # inline\n\nW 3\n")
        assert circ == Circuit(1, (Gate("H", (0,)), Gate("W", (), 3)))

    def test_missing_header(self):
        with raises_synth_error():
            parse_circuit("H 0\n")
        with raises_synth_error():
            parse_circuit("")

    def test_unknown_gate(self):
        with raises_synth_error() as info:
            parse_circuit("qubits 1\nRZ 0\n")
        assert info.value.line == 2

    def test_bad_arguments(self):
        with raises_synth_error():
            parse_circuit("qubits 1\nH zero\n")
        with raises_synth_error():
            parse_circuit("qubits 1\nW 0\n")
        with raises_synth_error():
            parse_circuit("qubits 2\nCNOT 0 0\n")

    @pytest.mark.parametrize("text, message", [
        ("qubits \uff12\n", "expected: qubits <1|2>"),
        ("qubits 1\nH 0_0\n", "bad arguments for H"),
        ("qubits 1\nH \u0660\n", "bad arguments for H"),
        ("qubits 1\nW \uff17\n", "bad arguments for W"),
        ("qubits 2\nCNOT 0 \uff11\n", "bad arguments for CNOT"),
    ])
    def test_only_plain_integers(self, text, message):
        """int() also reads Unicode digits and "_" separators."""
        with raises_synth_error(message):
            parse_circuit(text)

    def test_repeated_invalid_line_reports_first(self):
        for bad in ("T x", "CNOT 1 1", "W 9"):
            with raises_synth_error() as info:
                parse_circuit(f"qubits 2\nH 0\n{bad}\nH 0\n{bad}\n")
            assert info.value.line == 3

    def test_repeated_lines_share_their_gate(self):
        circ = parse_circuit("qubits 2\nCNOT 0 1\n  CNOT   0 1  # again\n"
                             "CNOT 0\t1\nCNOT 0 1 # note\nW 3\nCNOT 0 1\n")
        cnot = Gate("CNOT", (0, 1))
        assert circ.gates == (cnot,) * 4 + (Gate("W", (), 3), cnot)
        assert circ.gates[0] is circ.gates[3] is circ.gates[5]

    def test_wire_out_of_range(self):
        with raises_synth_error():
            parse_circuit("qubits 1\nH 1\n")

    def test_ancilla_round_trip(self):
        circ = emit([omega_op(3, 1)], 4)
        assert circ.uses_ancilla
        again = parse_circuit(render_circuit(circ))
        assert again == circ
        assert circuit_to_matrix(again) == word_matrix([omega_op(3, 1)], 4)
