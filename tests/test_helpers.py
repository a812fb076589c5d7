"""The word and gate searches in `tests/helpers.py`."""

import pytest

from deltasynth.circuits import Circuit, Gate, circuit_to_matrix
from deltasynth.linalg import h_op, word_matrix
from helpers import H_EXACT, T_EXACT, enumerate_words, identity, search_gate_word


class TestEnumerateWords:
    def test_length_zero(self):
        table = enumerate_words(2, 0)
        assert table == {identity(2): ()}

    def test_length_one_count(self):
        # 14 phase operators, one mixing and one swap: 16 plus the identity.
        assert len(enumerate_words(2, 1)) == 17

    def test_words_reproduce_matrices(self):
        for matrix, word in enumerate_words(2, 2).items():
            assert len(word) <= 2
            assert word_matrix(word, 2) == matrix

    def test_words_are_shortest(self):
        shallow = enumerate_words(2, 1)
        for matrix, word in enumerate_words(2, 2).items():
            if len(word) == 2:
                assert matrix not in shallow


class TestSearchGateWord:
    def test_finds_single_gate(self):
        assert search_gate_word(T_EXACT, 2) == (Gate("T", (0,)),)

    def test_identity_is_empty(self):
        assert search_gate_word(identity(4), 1) == ()

    def test_unreachable_is_none(self):
        assert search_gate_word(H_EXACT, 3, pool=[Gate("T", (0,))]) is None

    def test_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            search_gate_word(identity(3), 1)

    def test_controlled_mixing_needs_seven_gates(self):
        target = word_matrix([h_op(3, 4)], 4)
        pool = [
            Gate("SDG", (1,)),
            Gate("H", (1,)),
            Gate("TDG", (1,)),
            Gate("T", (1,)),
            Gate("S", (1,)),
            Gate("CNOT", (0, 1)),
        ]
        found = search_gate_word(target, 7, pool=pool)
        assert found is not None
        assert len(found) == 7
        assert circuit_to_matrix(Circuit(2, found)) == target
