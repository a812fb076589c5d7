"""End-to-end acceptance checks over seeded instance corpora.

Each test covers one promised property of the package and prints one summary
line with the measured numbers.  The size-bound constants below were frozen
from a calibration sweep (1000 instances, gate budgets 5..100, 25 seeds per
budget, both qubit counts, plus 1000 random monomials): the sweep required
word <= 6.17*k + 7 and gates <= 148.5*k + 182, and no monomial word exceeded
7 operators.  The frozen values add headroom; runs must stay under them.
"""

import ast
import collections
import hashlib
import io
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

import deltasynth
import deltasynth.engine
from deltasynth.circuits import (Circuit, Gate, circuit_to_matrix, emit, gate_counts,
                                 render_circuit, verify_templates)
from deltasynth.cli import main, parse_matrix, random_unitary, render_matrix
from deltasynth.engine import synthesize, verify_decomposition
from deltasynth.linalg import (ExactMatrix, delta_exponent, is_unitary, residue_matrix,
                              word_matrix)
from deltasynth.ring import DOmega, OMEGA_POWERS
from helpers import (D_ZERO, MONOMIAL_WORD_MAX, enumerate_words, exact, identity, mixing_ops,
                     random_word, random_word_matrix, scaled, t_count_bound, unfolded_emit)

WORD_SLOPE = 8
WORD_OFFSET = 7
# 170 until emit carried odd determinant parity; the worst (gates - 200)/k
# then read 16.3 over the benchmark's deep inputs (seeds 1-3) and 15.8 over
# the calibration sweep plus five 2-qubit seeds at budgets 500, 1000, 2500
GATE_SLOPE = 25
GATE_OFFSET = 200

CORPUS_TIME_LIMIT_S = 60.0
LARGE_INSTANCE_TIME_LIMIT_S = 2.0

# sha256 over one digest_line per synthesized matrix, in corpus order and in
# enumeration order: any change to k, a round's case chain or the word shows.
CORPUS_DIGEST = "f431d20ea092d7b76b743250fdd2db73442e0738bdb3a042d57f096a0cff010f"
ENUMERATED_DIGEST = "7a95441b1df85875ff7b8468652084205a3cd1b5ed72f10dae44f3a2001af110"
# sha256 over the rendered circuit emitted for each corpus word, in corpus
# order: any change to a lowering template or to gate order shows.
CIRCUIT_DIGEST = "e64794f2539fbe3b3fa7587c903820801b4706c9f7ec008930866c1641ecbb95"
# The same over 3000 random words (random_word_inputs), whose phase powers
# often add up odd: 1091 of their circuits borrow the ancilla, which no corpus
# circuit does, and an X moves an owed w^1 284 times, against 3 in the corpus.
RANDOM_WORD_CIRCUIT_DIGEST = "532acd1d427498252efce3fb479d4ab0df77de7785404ecd9dde7963e633fc13"
# sha256 over the argv, exit code, stdout and stderr of each call of
# test_cli_digest's sweep: any change to what the command line prints shows.
CLI_DIGEST = "dead7268b0cd6b24f2afd7e6509d7f7515f7f739fa1b3d066fc9a97ccad7fd55"
# T over the emitted circuits of the 1000 corpus words and of the 3000 random
# words: ceilings that may only go down.  The phase fold took them from 5790
# and 29003.
CORPUS_T_CEILING = 3608
RANDOM_WORD_T_CEILING = 24103


def digest_line(dec) -> str:
    chains = "|".join(",".join(rnd.case_chain) for rnd in dec.rounds)
    return f"{dec.source_k} {chains} {' '.join(map(str, dec.word))}\n"


def corpus_specs():
    budgets = range(5, 61, 5)
    for qubits in (1, 2):
        for i in range(500):
            yield qubits, budgets[i % len(budgets)], i


@pytest.fixture(scope="module")
def corpus():
    """(qubits, matrix, decomposition) for 1000 instances, with total synth time
    and the matrices synthesize ran its Gram check on."""
    matrices = [(spec[0], random_unitary(*spec)) for spec in corpus_specs()]
    gram_checked = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deltasynth.engine, "is_unitary",
                      lambda m: gram_checked.append(m) or is_unitary(m))
        start = time.perf_counter()
        entries = [(qubits, m, synthesize(m)) for qubits, m in matrices]
        ok = sum(verify_decomposition(m, dec) for _, m, dec in entries)
        elapsed = time.perf_counter() - start
    return entries, ok, elapsed, gram_checked


def monomial(dim: int, perm, powers) -> ExactMatrix:
    rows = [[D_ZERO] * dim for _ in range(dim)]
    for i, (j, p) in enumerate(zip(perm, powers)):
        rows[i][j] = DOmega(OMEGA_POWERS[p], 0)
    return exact(rows)


def all_dim2_monomials():
    for perm in ((0, 1), (1, 0)):
        for p0 in range(8):
            for p1 in range(8):
                yield monomial(2, perm, (p0, p1))


def seeded_dim4_monomials(count: int):
    for seed in range(count):
        rng = random.Random(seed)
        perm = list(range(4))
        rng.shuffle(perm)
        yield monomial(4, perm, [rng.randrange(8) for _ in range(4)])


def test_round_trip_random_instances(corpus):
    entries, ok, elapsed, _ = corpus
    assert ok == len(entries) == 1000
    assert elapsed < CORPUS_TIME_LIMIT_S
    digest = hashlib.sha256()
    for _, _, dec in entries:
        digest.update(digest_line(dec).encode())
    assert digest.hexdigest() == CORPUS_DIGEST
    print(f"exact round trips: {ok}/1000 in {elapsed:.1f}s"
          f" (limit {CORPUS_TIME_LIMIT_S:.0f}s)")


def test_success_runs_no_gram_check(corpus):
    """A reduction that reaches I proves its input unitary: synthesize runs
    the Gram check only when the reduction fails."""
    entries, _, _, gram_checked = corpus
    assert gram_checked == []
    print(f"Gram checks on {len(entries)} corpus syntheses: 0")


def test_emitted_circuits_reproduce_inputs(corpus):
    entries, *_ = corpus
    two_qubit = [(m, dec) for qubits, m, dec in entries if qubits == 2][:100]
    assert len(two_qubit) == 100
    for m, dec in two_qubit:
        circuit = emit(dec.word, 4)
        # Clifford+T gates on two qubits have determinants that are powers of i
        assert not circuit.uses_ancilla
        assert circuit_to_matrix(circuit) == m
    print("emitted circuits exact: 100/100, none borrows the ancilla")


def test_emitted_circuits_digest(corpus):
    entries, *_ = corpus
    digest = hashlib.sha256()
    for qubits, _, dec in entries:
        digest.update(render_circuit(emit(dec.word, 2 ** qubits)).encode())
    assert digest.hexdigest() == CIRCUIT_DIGEST
    print(f"emitted circuits of {len(entries)} corpus words match the pinned digest")


def random_word_inputs():
    """3000 seeded random words, every fourth in dimension 2, with their
    dimension."""
    rng = random.Random(22)
    for i in range(3000):
        dim = 4 if i % 4 else 2
        yield random_word(dim, rng.randrange(1, 25), rng), dim


def test_random_word_circuits_digest():
    digest = hashlib.sha256()
    borrowed = 0
    for word, dim in random_word_inputs():
        circuit = emit(word, dim)
        digest.update(render_circuit(circuit).encode())
        borrowed += circuit.uses_ancilla
    assert digest.hexdigest() == RANDOM_WORD_CIRCUIT_DIGEST
    assert borrowed == 1091
    print(f"emitted circuits of 3000 random words match the pinned digest,"
          f" {borrowed} borrow the ancilla")


def test_fold_never_raises_t_or_gates(corpus):
    """emit's phase fold keeps each circuit's unitary and raises neither T
    nor the gate count, on every corpus word and every random word."""
    entries, *_ = corpus
    inputs = {"corpus": ([(dec.word, 2 ** qubits) for qubits, _, dec in entries],
                         CORPUS_T_CEILING),
              "random words": (random_word_inputs(), RANDOM_WORD_T_CEILING)}
    for name, (words, ceiling) in inputs.items():
        before = after = 0
        for word, dim in words:
            unfolded, folded = unfolded_emit(word, dim), emit(word, dim)
            plain, fold = gate_counts(unfolded), gate_counts(folded)
            assert fold["t_count"] <= plain["t_count"] and fold["total"] <= plain["total"]
            assert circuit_to_matrix(folded) == circuit_to_matrix(unfolded)
            before, after = before + plain["t_count"], after + fold["t_count"]
        assert after <= ceiling
        print(f"{name}: T {before} unfolded, {after} folded (ceiling {ceiling})")


def test_cli_digest(tmp_path, monkeypatch):
    """gen, then synth plain, --verify, --elementary and --debug and verify
    with its own circuit and with one extra X, on dimensions 1 to 4 and on
    each with its first row times w (odd det, so dimensions 3 and 4 borrow
    the ancilla), on a malformed and on a non-unitary file; a circuit of the
    wrong size; and a small bench on each qubit count."""
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()

    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
        return out.getvalue()

    files = {"d1": render_matrix(ExactMatrix([[OMEGA_POWERS[2]]])),
             "d2": call("gen", "--qubits", "1", "--budget", "12", "--seed", "3"),
             "d3": render_matrix(random_word_matrix(3, 10, 4)),
             "d4": call("gen", "--qubits", "2", "--budget", "16", "--seed", "5")}
    for name, text in list(files.items()):
        m = parse_matrix(text)
        files[name + "odd"] = render_matrix(
            ExactMatrix([[z.mul_omega_power(1) for z in m.rows[0]], *m.rows[1:]], m.e))
    files |= {"bad": "dim 2\n1 0\n", "nonunitary": "dim 2\n1 1\n0 1\n"}
    for name, text in files.items():
        Path(name).write_text(text)
        for flags in ((), ("--verify",), ("--elementary",), ("--debug",)):
            call("synth", name, *flags)
        Path(name + ".c").write_text(call("synth", name))
        call("verify", name, name + ".c")
        Path("wrong.c").write_text(call("synth", name) + "X 0\n")
        call("verify", name, "wrong.c")
    call("verify", "d3", "d2.c")
    call("verify", "d2", "d4.c")
    call("bench", "--qubits", "1", "--budgets", "4,8", "--trials", "2", "--seed", "1")
    call("bench", "--qubits", "2", "--budgets", "6", "--trials", "2", "--seed", "2")
    assert digest.hexdigest() == CLI_DIGEST
    print(f"{len(files)} input files through synth, verify, gen and bench match the"
          f" pinned digest")


def test_channel_bound_known_values():
    def bound(qubits, *gates):
        return t_count_bound(circuit_to_matrix(Circuit(qubits, gates)))
    assert t_count_bound(identity(2)) == t_count_bound(identity(4)) == 0
    assert bound(1, Gate("T", (0,))) == bound(2, Gate("T", (0,))) == 1
    assert bound(2, Gate("T", (0,)), Gate("T", (1,))) == 2
    assert bound(2, Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("S", (1,))) == 0
    print("channel-representation T bound: identity 0, T 1, T on both wires 2,"
          " a Clifford 0")


def test_t_count_meets_channel_bound(corpus):
    """No ancilla-free circuit has fewer T gates than the sde of its channel
    representation; every one-qubit circuit emit writes meets it exactly."""
    entries, *_ = corpus
    one_qubit = [(m, dec) for qubits, m, dec in entries if qubits == 1]
    two_qubit = [(m, dec) for qubits, m, dec in entries if qubits == 2][:100]
    large = random_unitary(2, 2500, 1)
    checked = 0
    for m, word, dim in ([(m, dec.word, 2) for m, dec in one_qubit]
                         + [(m, dec.word, 4) for m, dec in two_qubit]
                         + [(large, synthesize(large).word, 4)]):
        circuit = emit(word, dim)
        assert not circuit.uses_ancilla
        t_count, bound = gate_counts(circuit)["t_count"], t_count_bound(m)
        assert t_count >= bound
        if dim == 2:
            assert t_count == bound
        checked += 1
    assert (len(one_qubit), checked) == (500, 601)
    print(f"T >= channel bound on {checked} circuits, T == bound on all 500 one-qubit"
          f" ones; k=161: T {t_count}, bound {bound}")


def test_output_size_linear_in_exponent(corpus):
    entries, *_ = corpus
    worst_word = worst_gates = -math.inf
    for qubits, m, dec in entries:
        k = dec.source_k
        word_len = len(dec.word)
        assert word_len <= WORD_SLOPE * k + WORD_OFFSET
        total = gate_counts(emit(dec.word, 2 ** qubits))["total"]
        assert total <= GATE_SLOPE * k + GATE_OFFSET
        if k:
            worst_word = max(worst_word, (word_len - WORD_OFFSET) / k)
            worst_gates = max(worst_gates, (total - GATE_OFFSET) / k)
        for rnd in dec.rounds:
            assert rnd.k_after < rnd.k_before
            assert mixing_ops(rnd) <= 4
    print(f"size bounds: word <= {WORD_SLOPE}k+{WORD_OFFSET}"
          f" (worst slope {worst_word:.2f}),"
          f" gates <= {GATE_SLOPE}k+{GATE_OFFSET} (worst slope {worst_gates:.2f})")


def test_least_exponent_never_one(corpus):
    entries, *_ = corpus
    checked = 0
    for _, m, dec in entries:
        assert delta_exponent(m) != 1
        for rnd in dec.rounds:
            assert rnd.k_after != 1
        checked += 1
    for m in seeded_dim4_monomials(200):
        assert delta_exponent(m) != 1
        checked += 1
    print(f"least exponent 1 never observed across {checked} unitaries")


def test_residue_parity_invariants(corpus):
    entries, *_ = corpus
    checked = 0
    for _, m, _ in entries:
        k = delta_exponent(m)
        if k == 0:
            continue
        pattern = [[r & 1 for r in row]
                   for row in residue_matrix(scaled(m, k))]
        dim = len(pattern)
        for row in pattern:
            assert sum(row) % 2 == 0
        for j in range(dim):
            assert sum(row[j] for row in pattern) % 2 == 0
        for r1, r2 in combinations(range(dim), 2):
            overlap = sum(a & b for a, b in zip(pattern[r1], pattern[r2]))
            assert overlap % 2 == 0
            common = sum(pattern[i][r1] & pattern[i][r2] for i in range(dim))
            assert common % 2 == 0
        checked += 1
    assert checked > 500
    print(f"residue parity invariants hold for {checked} instances with k > 0")


def test_gate_templates_exact():
    verify_templates()
    print("all gate templates multiply out exactly")


def test_monomial_base_case_bounded():
    longest = 0
    count = 0
    for dim, mats in ((2, all_dim2_monomials()),
                      (4, seeded_dim4_monomials(1000))):
        for m in mats:
            dec = synthesize(m)
            assert dec.source_k == 0
            assert len(dec.word) <= MONOMIAL_WORD_MAX[dim] <= WORD_OFFSET
            assert word_matrix(dec.word, dim) == m
            longest = max(longest, len(dec.word))
            count += 1
    assert count == 128 + 1000
    print(f"monomial base case: {count} instances, longest word {longest}"
          f" (bound {WORD_OFFSET})")


def test_enumerated_words_resynthesize():
    total = 0
    digest = hashlib.sha256()
    for dim in (2, 3, 4):
        table = enumerate_words(dim, 3)
        for m, _ in table.items():
            dec = synthesize(m)
            assert word_matrix(dec.word, dim) == m
            digest.update(digest_line(dec).encode())
        total += len(table)
    assert digest.hexdigest() == ENUMERATED_DIGEST
    print(f"all {total} enumerated products resynthesize exactly")


def test_large_instance_fast():
    m = random_unitary(2, 2500, 1)
    k = delta_exponent(m)
    assert k >= 150
    start = time.perf_counter()
    dec = synthesize(m)
    circuit = emit(dec.word, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < LARGE_INSTANCE_TIME_LIMIT_S
    assert verify_decomposition(m, dec)
    assert len(dec.word) <= WORD_SLOPE * k + WORD_OFFSET
    assert gate_counts(circuit)["total"] <= GATE_SLOPE * k + GATE_OFFSET
    print(f"k={k} instance: word {len(dec.word)}, {len(circuit.gates)} gates"
          f" in {elapsed:.2f}s (limit {LARGE_INSTANCE_TIME_LIMIT_S:.0f}s)")


def test_no_floating_point_in_package():
    """The README promises exact arithmetic throughout: no module of the
    package may hold a float or complex literal, call float() or complex(),
    or use true division (/ or /=)."""
    offences = []
    modules = sorted(Path(deltasynth.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offences.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "complex")):
                offences.append(f"{path.name}:{node.lineno}: call to {node.func.id}()")
            elif (isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div)):
                offences.append(f"{path.name}:{node.lineno}: true division")
    assert offences == []
    print(f"no floating point in {len(modules)} modules")


# Names no other top-level statement of the package uses and __all__ does
# not export, with the reason each stays in the package
UNUSED_BUT_KEPT = {
    "DOmega": "benchmark/tracing.py's RingCounter counts its arithmetic;"
              " moves to the tests with ROADMAP item 2",
}
# Member names defined on more than one package class.  A member counts as
# loaded when any class's member of its name is, so a new name here needs a
# look at whether each owner's member is itself used.
SHARED_MEMBER_NAMES = {"conj", "dim", "exit_code", "mul_omega_power", "power"}


def assigned_names(stmt) -> list[str]:
    """The names an assignment statement binds; none for other statements."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def test_no_dead_names_in_package():
    """Every top-level function, class and constant of the package is loaded,
    as a name or an attribute, by another top-level statement of some module
    of the package, or is exported by __all__.  Every method, property and
    class-level attribute of a package class, dunders aside, is loaded as an
    attribute by some module of the package.  What only the tests use lives
    in tests/helpers.py."""
    defined, members, loaded = [], [], set()
    users = collections.defaultdict(set)
    modules = sorted(Path(deltasynth.__file__).parent.glob("*.py"))
    for path in modules:
        for index, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((stmt.name, path.name, index, stmt.lineno))
            defined += [(name, path.name, index, stmt.lineno) for name in assigned_names(stmt)]
            if isinstance(stmt, ast.ClassDef):
                members += [(name, stmt.name, f"{path.name}:{node.lineno}: {stmt.name}.{name}")
                            for node in stmt.body
                            for name in ([node.name] if isinstance(node, ast.FunctionDef)
                                         else assigned_names(node))
                            if not (name.startswith("__") and name.endswith("__"))]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    users[node.id].add((path.name, index))
                elif isinstance(node, ast.Attribute):
                    users[node.attr].add((path.name, index))
                    if isinstance(node.ctx, ast.Load):
                        loaded.add(node.attr)
    dead = {name: f"{module}:{line}" for name, module, index, line in defined
            if not users[name] - {(module, index)}
            and name not in deltasynth.__all__ and name != "__all__"}
    offences = [f"{where}: {name}" for name, where in sorted(dead.items())
                if name not in UNUSED_BUT_KEPT]
    offences += [where for name, _, where in members if name not in loaded]
    assert offences == []
    # a kept name that gains a caller, or leaves, leaves the allowlist too
    assert sorted(dead) == sorted(UNUSED_BUT_KEPT)
    # members are matched by name, not by owner
    assert {name for name, owner, _ in members
            if any(n == name and o != owner for n, o, _ in members)} == SHARED_MEMBER_NAMES
    print(f"{len(defined)} top-level names and {len(members)} class members"
          f" in {len(modules)} modules, {len(dead)} kept unused")


# Every class an exit code or a caller tells apart; nothing else
ERROR_CLASSES = {"SynthError", "NotUnitaryError", "InvariantError", "VerificationError"}


def test_invariant_sites_named_by_message():
    """No class names an invariant's raise site, so its message must: every
    `raise InvariantError(...)` and `raise VerificationError(...)` in the
    package has a literal message, and with each placeholder read as {} no
    two of them are the same text."""
    sites = []
    modules = sorted(Path(deltasynth.__file__).parent.glob("*.py"))
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "errors.py":
            assert {node.name for node in tree.body
                    if isinstance(node, ast.ClassDef)} == ERROR_CLASSES
        for node in ast.walk(tree):
            call = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in ("InvariantError", "VerificationError")):
                continue
            message, text = call.args[0] if len(call.args) == 1 else None, None
            if isinstance(message, ast.Constant):
                text = message.value
            elif isinstance(message, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                               for part in message.values)
            sites.append((text, f"{path.name}:{node.lineno}"))
    assert sites
    assert [where for text, where in sites if not text] == []
    repeated = collections.Counter(text for text, _ in sites)
    assert [(text, where) for text, where in sites if repeated[text] > 1] == []
    print(f"{len(sites)} invariant and verification sites, each with its own message")


def test_engine_raises_only_engine_errors():
    """Every raise in engine.py raises InvariantError or NotUnitaryError: the
    engine does not re-check what its workspace already guarantees, and the
    one exact re-check, VerificationError's, is synth --verify's.  A bare
    `raise` passes the caught error on and is exempt."""
    allowed = {"InvariantError", "NotUnitaryError"}
    path = Path(deltasynth.__file__).parent / "engine.py"
    raised = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            name = getattr(getattr(node.exc, "func", None), "id", ast.unparse(node.exc))
            raised.append((name, f"engine.py:{node.lineno}"))
    assert len(raised) > 10
    assert [(name, where) for name, where in raised if name not in allowed] == []


def test_library_checks_raise_synth_error():
    """Malformed input to linalg.py and circuits.py raises SynthError, never
    ValueError: plain_int returns None for what it refuses, and its callers
    raise their own messages."""
    raised = []
    for module in ("linalg.py", "circuits.py"):
        tree = ast.parse((Path(deltasynth.__file__).parent / module).read_text(encoding="utf-8"))
        raised += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) and node.exc is not None
                   and getattr(getattr(node.exc, "func", node.exc), "id", None) == "ValueError"]
    assert raised == []


def test_d_omega_only_in_ring():
    """Matrices are held as Z[w] numerators over a power of sqrt(2) alone:
    D[w] values (DOmega and its constants) are the tests' reference, and
    no module of the package but ring.py may name them."""
    reference = {"DOmega", "D_ZERO", "D_ONE", "D_INV_SQRT2"}
    offences = []
    modules = sorted(Path(deltasynth.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        if path.name == "ring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            offences += [f"{path.name}:{node.lineno}: {name}"
                         for name in sorted(names & reference)]
    assert offences == []
    print(f"no D[w] reference names in {len(modules) - 1} modules")
