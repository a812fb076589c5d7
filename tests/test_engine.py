import collections
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from deltasynth.engine import (
    MAX_HADAMARDS_PER_ROUND,
    _Workspace,
    _reduce,
    _shape_table,
    classify_pattern,
    phase_offset,
    reduction_round,
    solve_monomial,
    synthesize,
    verify_decomposition,
)
from deltasynth.errors import InvariantError, NotUnitaryError
from deltasynth.linalg import (
    ExactMatrix,
    delta_exponent,
    h_op,
    invert_elementary,
    is_unitary,
    mix_halved,
    omega_op,
    residue_matrix,
    word_matrix,
    x_op,
)
import deltasynth.engine
import deltasynth.linalg
from deltasynth.cli import random_unitary
from deltasynth.ring import (
    DOmega,
    OMEGA_POWERS,
    ZOmega,
    ZW_DELTA,
    ZW_ONE,
    ZW_SQRT2,
    ZW_ZERO,
    divide_by_delta,
    quotient_bits,
    residue_bits,
)
from helpers import (D_ONE, D_ZERO, H_EXACT, MONOMIAL_WORD_MAX, T_EXACT, UNIT_SQRT2, ZW_DELTA2,
                     adjoint, enumerate_words, exact, identity, mat_mul, mixing_ops,
                     random_word_matrix)


def unit_class(power):
    return residue_bits(OMEGA_POWERS[power % 8])


def replay(ops, m, side="L"):
    for op in ops:
        op_mat = word_matrix([op], m.dim)
        m = mat_mul(op_mat, m) if side == "L" else mat_mul(m, op_mat)
    return m


def matrix_of(ws):
    """The matrix N / sqrt(2)^e the workspace holds, with e = (k + 1) // 2."""
    return ExactMatrix(ws.rows, (ws.k + 1) // 2)


def grid_of(ws):
    """The grid the workspace must hold: residue_matrix(rows) at even k, and
    the classes of the quotients rows / delta at odd k."""
    rows = ws.rows if ws.k % 2 == 0 else [[divide_by_delta(z) for z in row] for row in ws.rows]
    return [list(row) for row in residue_matrix(rows)]


def monomial(dim, perm, phases):
    rows = [[D_ZERO] * dim for _ in range(dim)]
    for c in range(dim):
        rows[perm[c]][c] = DOmega(OMEGA_POWERS[phases[c] % 8], 0)
    return exact(rows)


NOT_UNITARY_2 = exact([[D_ONE, D_ONE], [D_ZERO, D_ONE]])


# classify_pattern's message for a 0/1 pattern that is none of the shapes
NO_SHAPE = "does not match any reducible shape$"
# a Hadamard's message when a mixed sum is not divisible by sqrt(2)
NO_DROP = "^Hadamard increased the delta-exponent$"


class TestClassifyPattern:
    def test_dense_two(self):
        assert classify_pattern([[1, 1], [1, 1]]) == "dense2"

    def test_sparse_two_rejected(self):
        with pytest.raises(InvariantError, match=NO_SHAPE) as excinfo:
            classify_pattern([[1, 0], [0, 1]])
        assert excinfo.type is InvariantError

    def test_block_three(self):
        assert classify_pattern([[0, 1, 1], [0, 0, 0], [0, 1, 1]]) == "block3"

    def test_three_cycle_rejected(self):
        with pytest.raises(InvariantError, match=NO_SHAPE) as excinfo:
            classify_pattern([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert excinfo.type is InvariantError

    def test_single_block(self):
        assert classify_pattern([
            [0, 0, 0, 0],
            [1, 0, 1, 0],
            [0, 0, 0, 0],
            [1, 0, 1, 0],
        ]) == "single_block"

    def test_full_rows(self):
        assert classify_pattern([
            [1, 1, 1, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [1, 1, 1, 1],
        ]) == "full_rows"

    def test_full_columns(self):
        assert classify_pattern([
            [0, 1, 1, 0],
            [0, 1, 1, 0],
            [0, 1, 1, 0],
            [0, 1, 1, 0],
        ]) == "full_rows"

    def test_double_block(self):
        assert classify_pattern([
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
        ]) == "double_block"

    def test_crossed_blocks_rejected(self):
        with pytest.raises(InvariantError, match=NO_SHAPE) as excinfo:
            classify_pattern([
                [1, 1, 0, 0],
                [0, 1, 1, 0],
                [0, 0, 1, 1],
                [1, 0, 0, 1],
            ])
        assert excinfo.type is InvariantError

    def test_block_and_rows(self):
        assert classify_pattern([
            [0, 1, 0, 1],
            [0, 1, 0, 1],
            [1, 1, 1, 1],
            [1, 1, 1, 1],
        ]) == "block_and_rows"

    def test_block_and_rows_misaligned_rejected(self):
        with pytest.raises(InvariantError, match=NO_SHAPE) as excinfo:
            classify_pattern([
                [1, 1, 1, 1],
                [1, 1, 1, 1],
                [1, 1, 0, 0],
                [0, 0, 1, 1],
            ])
        assert excinfo.type is InvariantError

    def test_dense_four(self):
        assert classify_pattern([[1] * 4 for _ in range(4)]) == "dense4"

    def test_odd_weights_rejected(self):
        with pytest.raises(InvariantError, match=NO_SHAPE) as excinfo:
            classify_pattern([
                [1, 1, 1, 0],
                [1, 1, 1, 0],
                [1, 1, 0, 1],
                [0, 0, 1, 1],
            ])
        assert excinfo.type is InvariantError

    def test_dimension_limits(self):
        # the table holds only square 0/1 patterns of dimension 2 to 4
        for pattern in ([[1]], [[1] * 5 for _ in range(5)],
                        [[1, 1], [1, 1], [1, 1]], [[2, 1], [1, 1]]):
            with pytest.raises(InvariantError, match=NO_SHAPE) as excinfo:
                classify_pattern(pattern)
            assert excinfo.type is InvariantError

    # The templates, restated here: template rows 0 and 1 (columns for the
    # transposed full_rows) are the lines the reduction mixes first.
    TEMPLATES = {
        ("dense2", False): ["11", "11"],
        ("block3", False): ["110", "110", "000"],
        ("dense4", False): ["1111", "1111", "1111", "1111"],
        ("single_block", False): ["1100", "1100", "0000", "0000"],
        ("full_rows", False): ["1111", "1111", "0000", "0000"],
        ("full_rows", True): ["1100", "1100", "1100", "1100"],
        ("block_and_rows", False): ["1100", "1100", "1111", "1111"],
        ("double_block", False): ["1100", "1100", "0011", "0011"],
    }

    @staticmethod
    def first_placements(template):
        """Each placement of a template, mapped to the first row and column
        permutations in itertools order that produce it: template row i
        lies at row row_perm[i] and template column j at col_perm[j]."""
        indices = range(len(template))
        first = {}
        for row_perm in itertools.permutations(indices):
            for col_perm in itertools.permutations(indices):
                placed = [[0] * len(template) for _ in indices]
                for i, r in enumerate(row_perm):
                    for j, c in enumerate(col_perm):
                        placed[r][c] = int(template[i][j])
                first.setdefault(tuple(map(tuple, placed)), (row_perm, col_perm))
        return first

    def test_every_pattern_is_a_placed_template(self):
        """Every 0/1 pattern of dimension 2 to 4 is rejected, or is a
        placement of exactly one template of the shape it is named."""
        placements = {key: set(self.first_placements(template))
                      for key, template in self.TEMPLATES.items()}
        counts = collections.Counter()
        for dim in (2, 3, 4):
            for bits in itertools.product((0, 1), repeat=dim * dim):
                pattern = [list(bits[i:i + dim]) for i in range(0, dim * dim, dim)]
                try:
                    tag = classify_pattern(pattern)
                except InvariantError as exc:
                    assert type(exc) is InvariantError
                    assert str(exc) == f"pattern {pattern!r} does not match any reducible shape"
                    continue
                keys = [key for key, placed in placements.items()
                        if key[0] == tag and tuple(map(tuple, pattern)) in placed]
                assert len(keys) == 1
                counts[keys[0]] += 1
        assert counts == {
            ("dense2", False): 1, ("block3", False): 9, ("dense4", False): 1,
            ("single_block", False): 36, ("full_rows", False): 6,
            ("full_rows", True): 6, ("block_and_rows", False): 36,
            ("double_block", False): 18,
        }
        assert sum(counts.values()) == 113

    def test_rule_picks_the_template_lines(self):
        """On every placement but dense4's, the rule flips exactly for the
        transposed full_rows, and its lines and support are the template's
        first two lines (columns when transposed) and their unit columns (the
        whole line for full_rows), placed by the first permutations; the
        block_and_rows fallback is template rows 2 and 3."""
        checked = 0
        for (tag, transposed), template in self.TEMPLATES.items():
            if tag == "dense4":
                continue
            for pattern, (row_perm, col_perm) in self.first_placements(template).items():
                lines, across = (col_perm, row_perm) if transposed else (row_perm, col_perm)
                support = across if tag == "full_rows" else across[:2]
                _, flip, got, got_support = _shape_table()[pattern]
                assert (flip, got[:2], got_support) == (transposed, lines[:2], support)
                if tag == "block_and_rows":
                    assert got[2:] == row_perm[2:]
                checked += 1
        assert checked == 112


# one representative per class mod delta^3, in the basis {1, delta, delta^2}
RESIDUE_REPS = [sum((b for i, b in enumerate((ZW_ONE, ZW_DELTA, ZW_DELTA2)) if c >> i & 1),
                    ZW_ZERO) for c in range(8)]
TIMES_CONJ = [[residue_bits(x * y.conj()) for y in RESIDUE_REPS] for x in RESIDUE_REPS]
PLUS = [[residue_bits(x + y) for y in RESIDUE_REPS] for x in RESIDUE_REPS]


def residue_inner(u, v):
    """The sum of u_i * conj(v_i), as a class mod delta^3."""
    acc = 0
    for x, y in zip(u, v):
        acc = PLUS[acc][TIMES_CONJ[x][y]]
    return acc


# the class of w * x for each class x mod delta^3
TIMES_OMEGA = [residue_bits(OMEGA_POWERS[1] * z) for z in RESIDUE_REPS]


def residue_unitaries(dim):
    """The self-orthogonal rows, and each multiset of them, up to row phases,
    with a unit entry and pairwise orthogonal rows and columns, with its
    number of ordered matrices.  A row phase keeps orthogonality and the unit
    pattern.  Column orthogonality is a sum of one term per row, so the last
    row is looked up by its terms instead of searched."""
    rows = [r for r in itertools.product(range(8), repeat=dim) if residue_inner(r, r) == 0]
    orbit_size = {}
    for r in rows:
        orbit = [r]
        for _ in range(3):
            orbit.append(tuple(TIMES_OMEGA[x] for x in orbit[-1]))
        orbit_size.setdefault(min(orbit), len(set(orbit)))
    reps = list(orbit_size)
    orthogonal = [{j for j, s in enumerate(reps) if residue_inner(r, s) == 0} for r in reps]
    col_pairs = list(itertools.combinations_with_replacement(range(dim), 2))
    terms = [tuple(TIMES_CONJ[r[a]][r[b]] for a, b in col_pairs) for r in reps]
    by_terms = collections.defaultdict(set)
    for j, t in enumerate(terms):
        by_terms[t].add(j)
    found = []

    def extend(chosen, candidates, acc):
        # rows ascend by index; acc is the column terms summed so far
        if len(chosen) == dim - 1:
            found.extend((*chosen, j) for j in by_terms[acc] & candidates if j >= chosen[-1])
            return
        for j in candidates:
            if not chosen or j >= chosen[-1]:
                extend((*chosen, j), candidates & orthogonal[j],
                       tuple(PLUS[x][y] for x, y in zip(acc, terms[j])))

    extend((), set(range(len(reps))), (0,) * len(col_pairs))
    multisets = []
    for m in found:
        if any(x & 1 for j in m for x in reps[j]):
            repeats = collections.Counter(m).values()
            orders = math.factorial(dim) // math.prod(map(math.factorial, repeats))
            multisets.append(([reps[j] for j in m],
                              orders * math.prod(orbit_size[reps[j]] for j in m)))
    return rows, multisets


@pytest.mark.parametrize("dim, n_rows, n_matrices, n_patterns",
                         [(2, 24, 64, 1), (3, 128, 4608, 9), (4, 1152, 27_787_264, 103)])
def test_every_unitary_unit_pattern_is_a_shape(dim, n_rows, n_matrices, n_patterns):
    """At delta-exponent k >= 2 the numerators N of delta^k * U satisfy
    N N^dagger = N^dagger N = (conj(delta) delta)^k I, so both products
    vanish mod delta^3.  Every unit pattern such an N can have is a
    reducible shape; in dimension 4, every placement of the six templates
    occurs."""
    assert [residue_bits(z) for z in RESIDUE_REPS] == list(range(8))
    # 2 is a multiple of delta^3, so adding classes is xor of their bits,
    # and a sum of column terms is 0 only when the last row's terms equal it
    assert PLUS == [[x ^ y for y in range(8)] for x in range(8)]
    rows, multisets = residue_unitaries(dim)
    unordered = {tuple(sorted(tuple(x & 1 for x in row) for row in m)) for m, _ in multisets}
    patterns = {p for u in unordered for p in itertools.permutations(u)}
    assert (len(rows), sum(n for _, n in multisets), len(patterns)) == (
        n_rows, n_matrices, n_patterns)
    # the patterns are exactly the placements of this dimension's shapes
    assert patterns == {p for p in _shape_table() if len(p) == dim}


class TestPhaseOffset:
    def test_aligned_pair(self):
        row1 = [unit_class(0), unit_class(1)]
        row2 = [unit_class(2), unit_class(3)]
        assert phase_offset(row1, row2) == 2

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=7))
    def test_shift_recovered(self, exps, shift):
        row1 = [unit_class(e) for e in exps]
        row2 = [unit_class(e + shift) for e in exps]
        assert phase_offset(row1, row2) == shift % 4

    def test_inconsistent_shift_rejected(self):
        row1 = [unit_class(0), unit_class(0)]
        row2 = [unit_class(2), unit_class(1)]
        with pytest.raises(InvariantError, match="^no single omega power aligns") as excinfo:
            phase_offset(row1, row2)
        assert excinfo.type is InvariantError

    def test_non_unit_rejected(self):
        with pytest.raises(InvariantError, match="^phase alignment needs unit") as excinfo:
            phase_offset([residue_bits(ZW_DELTA)], [unit_class(0)])
        assert excinfo.type is InvariantError


class TestSolveMonomial:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_identity_needs_nothing(self, dim):
        assert solve_monomial(_Workspace(identity(dim))) == []

    def test_every_two_dim_monomial(self):
        longest = 0
        for perm in itertools.permutations(range(2)):
            for phases in itertools.product(range(8), repeat=2):
                m = monomial(2, perm, phases)
                ops = solve_monomial(_Workspace(m))
                assert len(ops) <= MONOMIAL_WORD_MAX[2]
                assert replay(ops, m) == identity(2)
                longest = max(longest, len(ops))
        assert longest == MONOMIAL_WORD_MAX[2]

    @pytest.mark.parametrize("dim", [3, 4])
    def test_random_monomials(self, dim):
        rng = random.Random(97 * dim)
        for _ in range(200):
            perm = list(range(dim))
            rng.shuffle(perm)
            phases = [rng.randrange(8) for _ in range(dim)]
            m = monomial(dim, perm, phases)
            ops = solve_monomial(_Workspace(m))
            assert len(ops) <= MONOMIAL_WORD_MAX[dim]
            assert replay(ops, m) == identity(dim)

    def test_rejects_positive_exponent(self):
        with pytest.raises(InvariantError, match="^delta-exponent must be 0$") as excinfo:
            solve_monomial(_Workspace(H_EXACT))
        assert excinfo.type is InvariantError

    def test_non_unit_entry_caught_by_identity_check(self):
        # the unit checks read the grid's bit 0, which 2 does not set; the
        # closing exact check still rejects the entry
        m = ExactMatrix([[ZW_ONE, ZOmega.from_int(2)], [ZW_ZERO, ZW_ONE]])
        with pytest.raises(InvariantError,
                           match="^monomial cleanup did not reach the identity$") as excinfo:
            solve_monomial(_Workspace(m))
        assert excinfo.type is InvariantError

    def test_rejects_dense_row(self):
        with pytest.raises(InvariantError, match="^not one unit per row") as excinfo:
            solve_monomial(_Workspace(NOT_UNITARY_2))
        assert excinfo.type is InvariantError


class TestReductionRound:
    def test_hadamard_in_one_step(self):
        ws = _Workspace(H_EXACT)
        rnd = reduction_round(ws)
        assert rnd.left_ops == (h_op(1, 2),)
        assert rnd.right_ops == ()
        assert (rnd.k_before, rnd.k_after) == (2, 0)
        assert rnd.case_chain == ("dense2",)
        assert ws.k == 0
        assert matrix_of(ws) == identity(2)

    def test_exponent_one_rejected(self):
        forged = exact([[DOmega(ZW_ONE, 1), D_ZERO], [D_ZERO, D_ONE]])
        with pytest.raises(InvariantError, match="^delta-exponent 1 cannot occur") as excinfo:
            reduction_round(_Workspace(forged))
        assert excinfo.type is InvariantError

    def test_exponent_zero_rejected(self):
        # the identity's unit pattern is no reducible shape
        with pytest.raises(InvariantError, match=NO_SHAPE) as excinfo:
            reduction_round(_Workspace(identity(2)))
        assert excinfo.type is InvariantError

    def test_hadamard_budget_exhausted(self, monkeypatch):
        """A round whose passes leave a unit after MAX_HADAMARDS_PER_ROUND
        passes raises before the next pass.  The budget counts passes, so
        passes that apply no op spend it too."""
        passes = []

        def idle_pass(ws, pattern):
            passes.append(_shape_table()[pattern][0])
            assert len(passes) <= 4, "the budget did not stop the round"

        monkeypatch.setattr(deltasynth.engine, "_reduce", idle_pass)
        with pytest.raises(InvariantError,
                           match="^Hadamard budget for one round exhausted$") as excinfo:
            reduction_round(_Workspace(H_EXACT))
        assert excinfo.type is InvariantError
        assert passes == ["dense2"] * 4

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_progress_on_random_words(self, dim):
        """Every round lowers k within the budget, and after every round the
        workspace holds L * m * R for the ops applied so far, a unitary."""
        done = 0
        for seed in range(40):
            m = random_word_matrix(dim, 40, 31 * seed + dim)
            k = delta_exponent(m)
            if k <= 1:
                continue
            ws = _Workspace(m)
            while ws.k:
                rnd = reduction_round(ws)
                out = matrix_of(ws)
                assert rnd.k_before == k
                assert rnd.k_after < k
                assert rnd.k_after != 1
                assert mixing_ops(rnd) <= 4
                assert delta_exponent(out) == rnd.k_after
                assert is_unitary(out)
                assert replay(ws.right_ops, replay(ws.left_ops, m), "R") == out
                k = rnd.k_after
            done += 1
        assert done > 20

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_non_unitary_input_raises_only_invariant_errors(self, data):
        """Reduction of any matrix ends in an InvariantError or completes, and
        completes only on a unitary: every round it returns lowers k within
        the Hadamard budget."""
        m = draw_matrix(data)
        ws = _Workspace(m)
        try:
            while ws.k:
                rnd = reduction_round(ws)
                assert rnd.k_after < rnd.k_before
                assert mixing_ops(rnd) <= MAX_HADAMARDS_PER_ROUND
            solve_monomial(ws)
        except InvariantError:
            return
        assert is_unitary(m)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_pass_applies_one_hadamard(self, data):
        """The termination argument: each pass of reduction_round's loop
        applies exactly one Hadamard or raises, so a round lowers k within
        MAX_HADAMARDS_PER_ROUND Hadamards or raises, and the rounds number at
        most the input's k.  Inputs are those of the test above and scaled
        unitaries c * U, which reduce as far as U does when c is a unit mod
        delta, so the failure path costs at most one synthesis at U's k."""
        if data.draw(st.booleans()):
            m = draw_matrix(data)
        else:
            u = random_unitary(data.draw(st.sampled_from((1, 2))),
                               data.draw(st.integers(min_value=0, max_value=200)),
                               data.draw(st.integers(min_value=0, max_value=999)))
            c = data.draw(st.sampled_from((ZW_ONE + ZW_DELTA ** 3, ZOmega.from_int(3)))
                          | small(2).filter(bool))
            m = ExactMatrix([[z * c for z in row] for row in u.rows], u.e)
        reduce, passes, rounds = deltasynth.engine._reduce, [], []

        def hadamards(ws):
            return sum(op.kind == "H" for op in (*ws.left_ops, *ws.right_ops))

        def counted(ws, pattern):
            before = hadamards(ws)
            reduce(ws, pattern)
            passes[-1] += 1
            assert hadamards(ws) == before + 1

        ws = _Workspace(m)
        source_k = ws.k
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(deltasynth.engine, "_reduce", counted)
            try:
                while ws.k:
                    rounds.append(ws.k)
                    passes.append(0)
                    reduction_round(ws)
            except InvariantError:
                pass
        assert max(passes, default=0) <= MAX_HADAMARDS_PER_ROUND
        assert len(rounds) <= source_k
        assert rounds == sorted(set(rounds), reverse=True)


def small(bound):
    return st.builds(ZOmega, *[st.integers(min_value=-bound, max_value=bound)] * 4)


def draw_matrix(data):
    """A matrix that is rarely unitary: small random numerators, or a random
    Clifford+T unitary with one entry moved."""
    if data.draw(st.booleans()):
        dim = data.draw(st.integers(min_value=2, max_value=4))
        rows = data.draw(st.lists(st.lists(small(3), min_size=dim, max_size=dim),
                                  min_size=dim, max_size=dim))
        return ExactMatrix(rows, data.draw(st.integers(min_value=0, max_value=6)))
    u = random_unitary(data.draw(st.sampled_from((1, 2))),
                       data.draw(st.integers(min_value=0, max_value=40)),
                       data.draw(st.integers(min_value=0, max_value=999)))
    rows = [list(row) for row in u.rows]
    index = st.integers(min_value=0, max_value=u.dim - 1)
    r, c = data.draw(st.tuples(index, index))
    rows[r][c] += data.draw(small(1))
    return ExactMatrix(rows, u.e)


def mixed_workspace(top):
    """The workspace's Hadamard applied to rows (top, 0) and (0, 0)."""
    ws = _Workspace(identity(2))
    ws.rows = [[top, ZW_ZERO], [ZW_ZERO, ZW_ZERO]]
    ws.apply(h_op(1, 2))
    return ws


class TestExactMix:
    @given(st.builds(ZOmega, *[st.integers(min_value=-50, max_value=50)] * 4))
    def test_mix_divides_by_delta_squared(self, z):
        # z * delta^2 / sqrt(2) = z * UNIT_SQRT2, in the kernel and in the
        # workspace, whose grid follows the mixed rows
        for top, half in ((z * ZW_DELTA2, z * UNIT_SQRT2), (z * ZW_SQRT2, z)):
            assert mix_halved([top], [ZW_ZERO]) == ([half], [half])
            ws = mixed_workspace(top)
            assert ws.rows == [[half, ZW_ZERO], [half, ZW_ZERO]]
            assert ws.bits == grid_of(ws)

    def test_non_divisible_sum_rejected(self):
        # 1 + w = delta is not a multiple of delta^2
        delta = OMEGA_POWERS[0] + OMEGA_POWERS[1]
        assert mix_halved([delta], [ZW_ZERO]) is None
        with pytest.raises(InvariantError, match=NO_DROP) as excinfo:
            mixed_workspace(delta)
        assert excinfo.type is InvariantError

    def test_workspace_mix_of_incongruent_rows_rejected(self):
        # rows (1, 1) and (w, w) at exponent 2 differ by a unit mod delta^2
        ws = _Workspace(forged((0, 0), (1, 1)))
        with pytest.raises(InvariantError, match=NO_DROP) as excinfo:
            ws.apply(h_op(1, 2))
        assert excinfo.type is InvariantError

    def test_odd_exponent_mix_must_keep_delta(self):
        """At odd k the grid holds the classes of rows / delta, so delta must
        divide every halved entry too: sqrt(2) * delta must divide x + y and
        x - y.  For delta and delta * w only sqrt(2) does."""
        rows = [[ZW_DELTA, ZW_ZERO], [ZW_DELTA * OMEGA_POWERS[1], ZW_ZERO]]
        ws = _Workspace(ExactMatrix(rows, 1))
        assert (ws.k, matrix_of(ws).e) == (1, 1)
        assert ws.bits == grid_of(ws)
        halves = mix_halved(*ws.rows)
        assert halves is not None
        assert None in [quotient_bits(z) for z in halves[0]]
        with pytest.raises(InvariantError, match=NO_DROP) as excinfo:
            ws.apply(h_op(1, 2))
        assert excinfo.type is InvariantError


class TestResidueGrid:
    """The workspace's grid equals residue_matrix(rows) at even k and the
    classes of rows / delta at odd k, after every op and every lowering of
    k, and classes are read only where an op or a lowering changed them."""

    def test_grid_follows_every_op_and_division(self, monkeypatch):
        def assert_current(ws, *context):
            assert ws.bits == grid_of(ws), context

        def checked(method):
            def run(ws, *args):
                result = method(ws, *args)
                assert_current(ws, method.__name__, *args)
                return result
            return run

        seen, parities = collections.Counter(), set()
        apply, has_unit = _Workspace.apply, _Workspace.has_unit

        def counted_apply(ws, op):
            # an op applied while the workspace is flipped acts on columns
            seen[op.kind, "R" if ws.flipped else "L"] += 1
            if op.kind == "H":
                parities.add(ws.k % 2)
            apply(ws, op)

        def checked_has_unit(ws):
            # asked before every case step and after every division by delta
            assert_current(ws, "has_unit")
            return has_unit(ws)

        monkeypatch.setattr(_Workspace, "apply", checked(counted_apply))
        monkeypatch.setattr(_Workspace, "flip", checked(_Workspace.flip))
        monkeypatch.setattr(_Workspace, "has_unit", checked_has_unit)
        monkeypatch.setattr(_Workspace, "divide_out_delta",
                            checked(_Workspace.divide_out_delta))
        matrices = [m for dim, length in ((2, 3), (3, 3), (4, 2))
                    for m in enumerate_words(dim, length)]
        for budget, seed in ((2500, 1), (2500, 2), (2000, 3)):
            m = random_unitary(2, budget, seed)
            assert delta_exponent(m) >= 100
            matrices.append(m)
        tags = set()
        for m in matrices:
            tags.update(tag for rnd in synthesize(m).rounds for tag in rnd.case_chain)
        # the one column step is the transposed full_rows mix: a phase and
        # a Hadamard
        assert set(seen) == {(kind, "L") for kind in ("omega", "H", "X")} | {
            ("omega", "R"), ("H", "R")}
        assert {"single_block", "dense4", "full_rows"} <= tags
        # Hadamards run on both grids
        assert parities == {0, 1}

    def test_residue_reads_per_synthesis(self, monkeypatch):
        """15 865 reads at k = 602, 7 913 by residue_bits and 7 952 by
        quotient_bits: 16 for the input and after each of the 602 lowerings
        of k, 8 per Hadamard, and one by delta_exponent, which stops at the
        first unit; a phase maps its row through PHASE_RESIDUES and reads
        none (its 4 reads made 18 544).
        Reading every query off the numerators took 54 326."""
        calls = collections.Counter()

        def counted(read):
            def run(z):
                calls[read.__name__] += 1
                return read(z)
            return run

        m = random_unitary(2, 10000, 1)
        assert delta_exponent(m) == 602
        for module in (deltasynth.engine, deltasynth.linalg):
            monkeypatch.setattr(module, "residue_bits", counted(residue_bits))
        monkeypatch.setattr(deltasynth.engine, "quotient_bits", counted(quotient_bits))
        synthesize(m)
        assert calls["residue_bits"] and calls["quotient_bits"]
        assert sum(calls.values()) <= 16_000


class TestFlip:
    """The column step flips the workspace, reduces rows and flips back."""

    # between them, they reach the transposed full_rows mix, the one column step
    INSTANCES = [(2, 100, 3), (2, 100, 5)]

    def test_two_flips_restore_the_workspace(self):
        for spec in self.INSTANCES:
            ws = _Workspace(random_unitary(*spec))
            rows, bits = [list(row) for row in ws.rows], [list(row) for row in ws.bits]
            ws.flip()
            assert ws.flipped
            assert ws.rows == [list(col) for col in zip(*rows)]
            assert ws.bits == [list(col) for col in zip(*bits)]
            ws.flip()
            assert not ws.flipped
            assert (ws.rows, ws.bits) == (rows, bits)

    def test_ops_applied_while_flipped_are_right_ops(self):
        # the Hadamard on columns 2 and 4 undoes the input's, so it divides
        m = word_matrix([h_op(2, 4)], 4)
        ops = [omega_op(2, 3), h_op(2, 4), x_op(1, 3), omega_op(4, 5)]
        ws = _Workspace(m)
        ws.apply(ops[0])
        ws.flip()
        for op in ops[1:]:
            ws.apply(op)
        ws.flip()
        assert ws.left_ops == ops[:1]
        assert ws.right_ops == ops[1:]
        assert ws.bits == grid_of(ws)
        assert matrix_of(ws) == replay(ops[1:], replay(ops[:1], m), "R")

    def test_every_round_returns_unflipped(self, monkeypatch):
        reduce, cases = deltasynth.engine._reduce, set()

        def recorded(ws, pattern):
            rights = len(ws.right_ops)
            reduce(ws, pattern)
            assert not ws.flipped
            if len(ws.right_ops) > rights:
                # (tag, transposed): a transposed full_rows has no full row
                cases.add((_shape_table()[pattern][0], not any(all(row) for row in pattern)))

        monkeypatch.setattr(deltasynth.engine, "_reduce", recorded)
        for spec in self.INSTANCES:
            ws = _Workspace(random_unitary(*spec))
            while ws.k:
                reduction_round(ws)
                assert not ws.flipped
            solve_monomial(ws)
        assert cases == {("full_rows", True)}


class TestSynthesize:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_identity(self, dim):
        dec = synthesize(identity(dim))
        assert dec.word == ()
        assert dec.rounds == ()
        assert dec.source_k == 0
        assert verify_decomposition(identity(dim), dec)

    def test_phase_gate(self):
        assert synthesize(T_EXACT).word == (omega_op(2, 1),)

    def test_hadamard_gate(self):
        assert synthesize(H_EXACT).word == (h_op(1, 2),)

    def test_scalar(self):
        m = exact([[DOmega(OMEGA_POWERS[3], 0)]])
        assert synthesize(m).word == (omega_op(1, 3),)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            synthesize(NOT_UNITARY_2)

    def test_gram_check_runs_only_when_reduction_fails(self, monkeypatch):
        """Reaching I proves unitarity; a failed reduction runs one Gram check,
        which names a non-unitary input and passes an engine bug on."""
        checks = []
        monkeypatch.setattr(deltasynth.engine, "is_unitary",
                            lambda m: checks.append(m) or is_unitary(m))
        for dim in (1, 2, 3, 4):
            m = random_word_matrix(dim, 40, dim)
            synthesize(m)
        assert checks == []
        u = random_unitary(2, 300, 1)
        c = ZW_ONE + ZW_DELTA ** 3
        rejected = [
            NOT_UNITARY_2,
            ExactMatrix([[z * c for z in row] for row in u.rows], u.e),
            ExactMatrix([[ZW_ONE]], 2),  # 1/2 as a 1x1 matrix, at k = 4
            ExactMatrix([[ZW_ZERO] * 3] * 3),
        ]
        for m in rejected:
            checks.clear()
            with pytest.raises(NotUnitaryError, match="^input matrix is not unitary$"):
                synthesize(m)
            assert checks == [m]

        def broken(ws):
            raise error("engine bug")

        monkeypatch.setattr(deltasynth.engine, "solve_monomial", broken)
        # an InvariantError on a unitary input is passed on after the check;
        # any other exception is a bug that no Gram check hides
        for error, m, checked in ((InvariantError, u, [u]),
                                  (TypeError, NOT_UNITARY_2, [])):
            checks.clear()
            with pytest.raises(error, match="engine bug"):
                synthesize(m)
            assert checks == checked

    def test_deterministic(self):
        m = random_word_matrix(4, 50, 1234)
        assert synthesize(m) == synthesize(m)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("length", [3, 20, 60])
    def test_random_round_trips(self, dim, length):
        for seed in range(8):
            m = random_word_matrix(dim, length, 17 * seed + length + dim)
            dec = synthesize(m)
            assert verify_decomposition(m, dec)
            assert dec.source_k == delta_exponent(m)
            k = dec.source_k
            for rnd in dec.rounds:
                assert rnd.k_before == k
                assert rnd.k_after < k
                assert 1 <= mixing_ops(rnd) <= 4
                k = rnd.k_after
            assert k in (0, dec.source_k)
            assert k != 1

    def test_case_coverage(self):
        seen = set()
        for dim, length, seed in [(2, 12, 12), (3, 40, 40), (4, 12, 12),
                                  (4, 12, 19), (4, 40, 54), (4, 40, 145)]:
            dec = synthesize(random_word_matrix(dim, length, seed))
            for rnd in dec.rounds:
                seen.update(rnd.case_chain)
        assert seen == {tag for tag, _ in TestClassifyPattern.TEMPLATES}

    def test_adjoint_metamorphic(self):
        # the reversed word with every op inverted is exactly U^dagger, and
        # U^dagger resynthesizes at the same least exponent; so does P U Q
        # for monomial P and Q, which permute and phase entries only
        reduced = 0
        for dim in (2, 3, 4):
            for seed in range(17):
                m = random_word_matrix(dim, 10 + 3 * seed, 1000 * dim + seed)
                dec = synthesize(m)
                inverse = [invert_elementary(op) for op in reversed(dec.word)]
                dagger = adjoint(m)
                assert word_matrix(inverse, dim) == dagger
                dec_dagger = synthesize(dagger)
                assert dec_dagger.source_k == dec.source_k
                assert verify_decomposition(dagger, dec_dagger)
                rng = random.Random(seed)
                p, q = (monomial(dim, rng.sample(range(dim), dim),
                                 [rng.randrange(8) for _ in range(dim)])
                        for _ in range(2))
                puq = mat_mul(mat_mul(p, m), q)
                dec_puq = synthesize(puq)
                assert dec_puq.source_k == dec.source_k
                assert word_matrix(dec_puq.word, dim) == puq
                reduced += dec.source_k > 0
        assert reduced > 40

    def test_verify_rejects_mismatch(self):
        dec = synthesize(T_EXACT)
        assert not verify_decomposition(H_EXACT, dec)
        assert not verify_decomposition(identity(3), dec)


def forged(*rows):
    """Rows of residue-level entries: ints are unit powers at exponent 2,
    ("sub", e) marks a unit at exponent 1, whose scaled residue is delta w^e."""
    out = []
    for row in rows:
        cells = []
        for spec in row:
            if isinstance(spec, tuple):
                cells.append(DOmega(OMEGA_POWERS[spec[1] % 8], 1))
            else:
                cells.append(DOmega(OMEGA_POWERS[spec % 8], 2))
        out.append(cells)
    return exact(out)


DENSE_4 = ((1, 1, 1, 1),) * 4
BLOCK_AND_ROWS = ((1, 1, 0, 0),
                  (1, 1, 0, 0),
                  (1, 1, 1, 1),
                  (1, 1, 1, 1))


def run_case(m, pattern):
    ws = _Workspace(m)
    _reduce(ws, pattern)
    return ws


def run_dense4(m):
    return run_case(m, DENSE_4)


def unit_triple(third):
    """The dense4 step's message when no row pair passes: the third row,
    read relative to row 0 and column 0."""
    return f"^{re.escape(f'unit triple {third[1:]} excluded by unitarity')}$"


def dense4_states():
    """Each all-units 4x4 matrix mod delta^3, as unit exponents, whose rows are
    self-orthogonal and pairwise orthogonal and whose columns are orthogonal,
    with ones in row 0 and column 0 (phases reach that), in every row order."""
    classes = {r: [unit_class(x) for x in r]
               for r in itertools.product(range(4), repeat=4) if r[0] == 0}
    rows = [r for r, c in classes.items() if residue_inner(c, c) == 0]
    matrices = [((0, 0, 0, 0),)]
    for _ in range(3):
        matrices = [(*m, r) for m in matrices for r in rows
                    if all(residue_inner(classes[r], classes[s]) == 0 for s in m)]
    matrices = [m for m in matrices
                if all(residue_inner(a, b) == 0
                       for a, b in itertools.combinations(zip(*map(classes.get, m)), 2))]
    return sorted({tuple(m[i] for i in order)
                   for m in matrices for order in itertools.permutations(range(4))})


class TestDenseFourBranches:
    """Forged residue layouts drive every branch of the dense dispatch.

    The matrices are not unitary; the branches that raise encode exactly the
    layouts unitarity forbids, and the Hadamard bookkeeping they exercise is
    algebraic, not spectral.
    """

    def test_uniform_differences(self):
        ws = run_dense4(forged((0, 0, 0, 0), (1, 1, 1, 1),
                               (0, 0, 0, 0), (0, 0, 0, 0)))
        assert ws.left_ops == [omega_op(1, 1), h_op(1, 2)]
        assert ws.right_ops == []

    @pytest.mark.parametrize("second,third", [((0, 0, 0, 1), (0, 1, 0, 0)),
                                              ((0, 0, 1, 2), (0, 1, 0, 0))],
                             ids=["3/1", "2/1/1"])
    def test_three_one_split_rejected(self, second, third):
        # rows 0 and 1 split their phase differences 3/1 or 2/1/1, so they
        # differ by an odd power of w somewhere, and so does row 2 from each
        with pytest.raises(InvariantError, match=unit_triple(third)) as excinfo:
            run_dense4(forged((0, 0, 0, 0), second,
                              third, (0, 0, 0, 0)))
        assert excinfo.type is InvariantError

    def test_distinct_ascending(self):
        ws = run_dense4(forged((0, 0, 0, 0), (0, 1, 2, 3),
                               (0, 1, 2, 3), (0, 0, 0, 0)))
        assert ws.left_ops == [h_op(2, 3)]
        assert ws.right_ops == []

    def test_distinct_descending(self):
        ws = run_dense4(forged((0, 0, 0, 0), (0, 1, 2, 3),
                               (0, 3, 2, 1), (0, 0, 0, 0)))
        assert ws.left_ops == [h_op(2, 3)]

    def test_distinct_needs_column_sort(self):
        # the partner rule reads no column order, so row 1 stays unsorted
        ws = run_dense4(forged((0, 0, 0, 0), (0, 2, 3, 1),
                               (0, 2, 3, 1), (0, 0, 0, 0)))
        assert ws.right_ops == []
        assert ws.left_ops == [h_op(2, 3)]

    @pytest.mark.parametrize("third", [(0, 1, 3, 2), (0, 2, 1, 3),
                                       (0, 2, 3, 1), (0, 3, 1, 2)])
    def test_distinct_bad_orderings_rejected(self, third):
        with pytest.raises(InvariantError, match=unit_triple(third)) as excinfo:
            run_dense4(forged((0, 0, 0, 0), (0, 1, 2, 3),
                              third, (0, 0, 0, 0)))
        assert excinfo.type is InvariantError

    @pytest.mark.parametrize("third,ops", [
        ((0, 0, 0, 0), [h_op(1, 3)]),
        ((0, 0, 2, 2), [h_op(1, 3)]),
        ((0, 2, 0, 2), [h_op(1, 3)]),
        ((0, 2, 2, 0), [h_op(1, 3)]),
        ((0, 1, 0, 1), [h_op(2, 3)]),
        ((0, 3, 0, 3), [h_op(2, 3)]),
    ])
    def test_distinct_paired_units(self, third, ops):
        ws = run_dense4(forged((0, 0, 0, 0), (0, 1, 2, 3),
                               third, (0, 0, 0, 0)))
        assert ws.left_ops == ops

    @pytest.mark.parametrize("third", [(0, 0, 1, 1), (0, 0, 3, 3),
                                       (0, 1, 1, 0), (0, 3, 3, 0),
                                       (0, 0, 1, 2)])
    def test_distinct_odd_pairs_rejected(self, third):
        with pytest.raises(InvariantError, match=unit_triple(third)) as excinfo:
            run_dense4(forged((0, 0, 0, 0), (0, 1, 2, 3),
                              third, (0, 0, 0, 0)))
        assert excinfo.type is InvariantError

    def test_pairs_even_gap(self):
        ws = run_dense4(forged((0, 0, 0, 0), (0, 0, 2, 2),
                               (0, 0, 0, 0), (0, 0, 0, 0)))
        assert ws.left_ops == [h_op(1, 2)]

    def test_pairs_needs_column_pairing(self):
        # the rule reads no column order, so the pairs need no column swap
        ws = run_dense4(forged((0, 0, 0, 0), (0, 2, 0, 2),
                               (0, 0, 0, 0), (0, 0, 0, 0)))
        assert ws.right_ops == []
        assert ws.left_ops == [h_op(1, 2)]

    @pytest.mark.parametrize("third,ops", [
        ((0, 0, 0, 0), [h_op(1, 3)]),
        ((0, 0, 2, 2), [h_op(1, 3)]),
        ((0, 0, 1, 1), [h_op(2, 3)]),
        ((0, 2, 1, 3), [h_op(2, 3)]),
        ((0, 2, 3, 1), [h_op(2, 3)]),
        ((0, 2, 2, 0), [h_op(1, 3)]),
        ((0, 2, 0, 2), [h_op(1, 3)]),
    ])
    def test_pairs_unit_gap(self, third, ops):
        ws = run_dense4(forged((0, 0, 0, 0), (0, 0, 1, 1),
                               third, (0, 0, 0, 0)))
        assert ws.left_ops == ops

    @pytest.mark.parametrize("third", [(0, 1, 2, 3), (0, 1, 3, 2),
                                       (0, 3, 1, 2), (0, 3, 2, 1),
                                       (0, 1, 0, 1), (0, 1, 1, 0),
                                       (0, 3, 0, 3), (0, 3, 3, 0),
                                       (0, 0, 1, 3)])
    def test_pairs_unit_gap_rejected(self, third):
        with pytest.raises(InvariantError, match=unit_triple(third)) as excinfo:
            run_dense4(forged((0, 0, 0, 0), (0, 0, 1, 1),
                              third, (0, 0, 0, 0)))
        assert excinfo.type is InvariantError

    def test_pairs_inverse_gap_mixes_rows_0_and_2(self):
        # rows 0 and 1 differ by w^3 in two entries; row 2 agrees with row 0
        ws = run_dense4(forged((0, 0, 0, 0), (0, 0, 3, 3),
                               (0, 0, 0, 0), (0, 0, 0, 0)))
        assert ws.right_ops == []
        assert ws.left_ops == [h_op(1, 3)]

    @pytest.mark.parametrize("second", [(0, 1, 2, 3), (0, 0, 1, 1), (0, 0, 3, 3)])
    def test_every_third_row(self, second):
        # Of the 64 third rows, 8 are mixed, each with the one of rows 0 and 1
        # it agrees with mod delta^2 (in the parity of every exponent); the
        # rest raise.
        first = (0, 0, 0, 0)
        mixed = 0
        for l, m, p in itertools.product(range(4), repeat=3):
            third = (0, l, m, p)
            try:
                ws = run_dense4(forged(first, second, third, (0, 0, 0, 0)))
            except InvariantError as exc:
                assert type(exc) is InvariantError
                assert re.fullmatch(unit_triple(third), str(exc)), third
                continue
            mixed += 1
            partners = [i for i, row in enumerate((first, second))
                        if all((x - y) % 2 == 0 for x, y in zip(row, third))]
            assert len(partners) == 1, third
            assert ws.left_ops == [h_op(partners[0] + 1, 3)], third
        assert mixed == 8

    def test_every_orthogonal_state(self):
        # Every state that orthogonality mod delta^3 allows reduces without a
        # raise, by one Hadamard on the first of the row pairs (0, 1), (0, 2)
        # and (1, 2) that agree mod delta^2 and differ by w^2 in an even
        # number of entries; so row 2 mixes only with its rule partner.
        def passes(state, a, b):
            d = [(x - y) % 4 for x, y in zip(state[a], state[b])]
            d = [(x - d[0]) % 4 for x in d]
            return all(x % 2 == 0 for x in d) and d.count(2) % 2 == 0

        states = dense4_states()
        splits = collections.Counter()
        for state in states:
            diffs = [(y - x) % 4 for x, y in zip(*state[:2])]
            splits["/".join(map(str, sorted(collections.Counter(diffs).values(),
                                            reverse=True)))] += 1
            ws = run_dense4(forged(*state))
            pairs = [p for p in ((0, 1), (0, 2), (1, 2)) if passes(state, *p)]
            assert pairs, state
            a, b = pairs[0]
            assert [op for op in ws.left_ops if op.kind == "H"] == [h_op(a + 1, b + 1)], state
            assert ws.right_ops == [], state
        # 31 uniform, 348 2/2 and 168 all-distinct splits of rows 0 and 1:
        # none splits 3/1 or 2/1/1
        assert len(states) == 547
        assert splits == {"4": 31, "2/2": 348, "1/1/1/1": 168}


class TestBlockAndRowsBranches:
    def test_congruent_light_rows_drop(self):
        m = forged((0, 0, ("sub", 0), ("sub", 0)),
                   (0, 0, ("sub", 0), ("sub", 0)),
                   (0, 0, 0, 0),
                   (0, 0, 0, 0))
        ws = run_case(m, BLOCK_AND_ROWS)
        assert ws.left_ops == [h_op(1, 2)]

    def test_defective_light_rows_mix_full_rows(self):
        m = forged((0, 0, ("sub", 0), ("sub", 0)),
                   (0, 0, ("sub", 1), ("sub", 1)),
                   (0, 0, 0, 0),
                   (0, 0, 2, 2))
        ws = run_case(m, BLOCK_AND_ROWS)
        assert ws.left_ops == [h_op(3, 4)]
