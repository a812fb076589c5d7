"""The three workloads: what one round calls, and how its outputs are checked.

A round calls the program once for every input of the workload, in a fixed
order, and times only those calls, on the clock it is given (see speed.py).
The first round's outputs are checked against the reference code or against
properties the method guarantees; every later round's outputs must equal the
first round's.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import inputs
from reference import DOCUMENTED_GATES, parse_circuit, simulate_circuit, word_product

MAX_MIXING_PER_ROUND = 4
T_GATES = ("T", "TDG")
MARKERS = ("ANC_INIT", "ANC_FREE")


@dataclass
class Round:
    """Timed calls of one round: total time, named parts, outputs."""

    wall_s: float
    parts: dict
    outputs: list


@dataclass
class Checked:
    """What checking one round's outputs found."""

    errors: list = field(default_factory=list)
    failed: int = 0
    sizes: dict = field(default_factory=dict)


def call_cli(cli, argv, clock):
    """(exit code, stdout, seconds, exception name) of one in-process CLI run.

    An exception escaping main() is what the interpreter would report with a
    traceback and exit status 1, so it is recorded as exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    fault = None
    with redirect_stdout(out), redirect_stderr(err):
        start = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the process boundary: record and go on
            code, fault = 1, type(exc).__name__
        elapsed = clock() - start
    return code, out.getvalue(), elapsed, fault


def gate_tuples(circuit):
    return [(g.name, tuple(g.wires), g.power) for g in circuit.gates]


def check_gates(name, matrix, qubits, gates, checked):
    """Reference check of a circuit: documented gates only, ancilla returned
    to |0>, exact equality with the input.  Returns (gates, T gates)."""
    undocumented = {g for g, _, _ in gates} - DOCUMENTED_GATES
    if undocumented:
        checked.errors.append(f"{name}: undocumented gates {sorted(undocumented)}")
    uses_ancilla = any(g == "ANC_INIT" for g, _, _ in gates)
    result = simulate_circuit(qubits, gates, uses_ancilla)
    if result is None:
        checked.errors.append(f"{name}: ancilla not returned to |0>")
    elif result != matrix:
        checked.errors.append(f"{name}: circuit differs from the input matrix")
    total = sum(g not in MARKERS for g, _, _ in gates)
    return total, sum(g in T_GATES for g, _, _ in gates)


def check_decomposition(name, inst, dec, checked):
    """Properties every synthesis output must have, and an exact reference
    product of its word."""
    errors = checked.errors
    if dec.source_k != inst.k:
        errors.append(f"{name}: k {dec.source_k}, reference least exponent {inst.k}")
    k = inst.k
    ops_in_rounds = 0
    for i, rnd in enumerate(dec.rounds):
        if rnd.k_before != k or not rnd.k_after < rnd.k_before:
            errors.append(f"{name}: round {i} goes {rnd.k_before} -> {rnd.k_after} from k {k}")
        ops = rnd.left_ops + rnd.right_ops
        mixing = sum(op.kind == "H" for op in ops)
        if mixing > MAX_MIXING_PER_ROUND:
            errors.append(f"{name}: round {i} has {mixing} mixing ops")
        ops_in_rounds += len(ops)
        k = rnd.k_after
    if k != 0:
        errors.append(f"{name}: rounds end at k {k}, not 0")
    tail = len(dec.word) - ops_in_rounds
    if tail > 2 * inst.dim - 1:
        errors.append(f"{name}: monomial tail of {tail} ops")
    word = [(op.kind, op.j, op.m, op.power) for op in dec.word]
    if word_product(word, inst.dim) != inst.matrix:
        errors.append(f"{name}: word does not multiply out to the input")


class Deep:
    """A few large 2-qubit matrices through `synth` and `synth --verify`."""

    name = "deep"
    parts = ("synth_s", "synth_verify_s")

    def __init__(self, program, seed, workdir, clock):
        self.program = program
        self.clock = clock
        self.instances = inputs.deep_instances(seed)
        self.paths = []
        for inst in self.instances:
            path = workdir / f"{inst.name}.matrix"
            path.write_text(inst.text, encoding="utf-8")
            self.paths.append(str(path))
        self.ops_per_round = 2 * len(self.instances)

    def run_round(self):
        cli = self.program.cli
        outputs = []
        parts = dict.fromkeys(self.parts, 0.0)
        for path in self.paths:
            for flags, part in (((), "synth_s"), (("--verify",), "synth_verify_s")):
                code, text, seconds, fault = call_cli(cli, ["synth", path, *flags],
                                                      self.clock)
                parts[part] += seconds
                outputs.append((code, text, fault))
        return Round(sum(parts.values()), parts, outputs)

    def check(self, outputs):
        checked = Checked()
        sizes = dict.fromkeys(("gates", "t_count", "word_len"), 0)
        circuits_seen = {}
        word_lengths = {}
        for i, (code, text, fault) in enumerate(outputs):
            inst = self.instances[i // 2]
            verify = i % 2 == 1
            name = f"{inst.name} synth{' --verify' if verify else ''}"
            if code != 0:
                checked.failed += 1
                checked.errors.append(f"{name}: exit {code} {fault or ''}")
                continue
            if ("# verified exact" in text.splitlines()) != verify:
                checked.errors.append(f"{name}: verified line present={not verify}")
            qubits, gates, header = parse_circuit(text)
            if header.get("k") != str(inst.k):
                checked.errors.append(f"{name}: reports k {header.get('k')}, reference {inst.k}")
            body = tuple(gates)
            if body not in circuits_seen:
                circuits_seen[body] = check_gates(name, inst.matrix, qubits, gates, checked)
            total, t_count = circuits_seen[body]
            if header.get("gates") != str(total) or header.get("t-count") != str(t_count):
                checked.errors.append(f"{name}: header counts differ from the circuit")
            if header.get("ancilla") != ("yes" if ("ANC_INIT", (qubits,), 0) in gates else "no"):
                checked.errors.append(f"{name}: ancilla header differs from the circuit")
            sizes["gates"] += total
            sizes["t_count"] += t_count
            word_lengths[i] = header.get("word-length", "")
            sizes["word_len"] += int(word_lengths[i] or 0)
        # The CLI prints no rounds; check them on the library's result.
        pkg = self.program.pkg
        for j, inst in enumerate(self.instances):
            dec = pkg.synthesize(self.program.cli.parse_matrix(inst.text))
            check_decomposition(inst.name, inst, dec, checked)
            if any(word_lengths.get(i, str(len(dec.word))) != str(len(dec.word))
                   for i in (2 * j, 2 * j + 1)):
                checked.errors.append(f"{inst.name}: CLI word length differs from the library's")
        checked.sizes = sizes
        return checked


class Corpus:
    """Thousands of small matrices on the library path."""

    name = "corpus"
    parts = ("library_s",)

    def __init__(self, program, seed, workdir, clock):
        self.program = program
        self.clock = clock
        self.instances = inputs.corpus_instances(seed)
        self.ops_per_round = len(self.instances)

    def run_round(self):
        pkg, cli = self.program.pkg, self.program.cli
        outputs = []
        start = self.clock()
        for inst in self.instances:
            try:
                matrix = cli.parse_matrix(inst.text)
                dec = pkg.synthesize(matrix)
                exact = pkg.verify_decomposition(matrix, dec)
                circuit = counts = None
                if inst.dim in (2, 4):
                    circuit = pkg.emit(dec.word, inst.dim)
                    counts = pkg.gate_counts(circuit)
                outputs.append((exact, dec, circuit, counts))
            except Exception as exc:  # one failed input must not end the round
                outputs.append(type(exc).__name__)
        wall = self.clock() - start
        return Round(wall, {"library_s": wall}, outputs)

    def check(self, outputs):
        checked = Checked()
        sizes = dict.fromkeys(("gates", "t_count", "word_len"), 0)
        for inst, out in zip(self.instances, outputs):
            if isinstance(out, str):
                checked.failed += 1
                checked.errors.append(f"{inst.name}: raised {out}")
                continue
            exact, dec, circuit, counts = out
            if exact is not True:
                checked.errors.append(f"{inst.name}: verify_decomposition returned {exact!r}")
            check_decomposition(inst.name, inst, dec, checked)
            sizes["word_len"] += len(dec.word)
            if circuit is None:
                continue
            total, t_count = check_gates(inst.name, inst.matrix, circuit.data_qubits,
                                         gate_tuples(circuit), checked)
            if (counts["total"], counts["t_count"]) != (total, t_count):
                checked.errors.append(f"{inst.name}: gate_counts differs from the circuit")
            sizes["gates"] += total
            sizes["t_count"] += t_count
        checked.sizes = sizes
        return checked


class Verify:
    """`verify` on circuit files the emitter did not write."""

    name = "verify"
    parts = ("verify_s",)

    def __init__(self, program, seed, workdir, clock):
        self.program = program
        self.clock = clock
        self.cases = inputs.verify_cases(seed)
        self.paths = []
        gates = t_count = 0
        for case in self.cases:
            matrix = workdir / f"{case.name}.matrix"
            circuit = workdir / f"{case.name}.circuit"
            matrix.write_bytes(case.matrix_bytes)
            circuit.write_bytes(case.circuit_bytes)
            self.paths.append((str(matrix), str(circuit)))
            if not case.known_fault:
                names = [line.split()[0] for line in case.circuit_bytes.decode().splitlines()[1:]]
                gates += len(names)
                t_count += sum(n in T_GATES for n in names)
        # verify synthesizes nothing: its sizes are those of the circuits it checks
        self.sizes = {"gates": gates, "t_count": t_count, "word_len": gates}
        self.ops_per_round = len(self.cases)

    def run_round(self):
        cli = self.program.cli
        outputs = []
        total = 0.0
        for matrix, circuit in self.paths:
            code, text, seconds, fault = call_cli(cli, ["verify", matrix, circuit],
                                                  self.clock)
            total += seconds
            outputs.append((code, text, fault))
        return Round(total, {"verify_s": total}, outputs)

    def check(self, outputs):
        checked = Checked(sizes=dict(self.sizes))
        for case, (code, text, fault) in zip(self.cases, outputs):
            if code == case.expected_exit:
                if code == 0 and text != "exact match\n":
                    checked.errors.append(f"{case.name}: exit 0 without 'exact match'")
                continue
            checked.failed += 1
            if not case.known_fault:
                checked.errors.append(f"{case.name}: exit {code}, expected {case.expected_exit}")
        return checked


WORKLOADS = {w.name: w for w in (Deep, Corpus, Verify)}
