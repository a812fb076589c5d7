"""Command-line surface: synthesize, verify, generate, benchmark.

Matrix files use the square-root form (a + b*sqrt(2) + i*(c + d*sqrt(2))) /
sqrt(2)^m per entry, which is how such matrices are usually stated; on load
every entry is brought to the largest m, which the matrix then lowers while
it can, and each printed entry is written over its own least m.  Circuit
files are the text format of the circuits module, so everything this tool
writes it can also read back and re-check.  `gen` and `bench` draw their
instances as seeded Clifford+T gate words, so each exact unitary is in range
of the reduction by construction.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .circuits import (
    Circuit,
    Gate,
    circuit_target,
    circuit_to_matrix,
    emit,
    gate_counts,
    parse_circuit,
    plain_int,
    render_circuit,
)
from .engine import synthesize, verify_decomposition
from .errors import NotUnitaryError, SynthError, VerificationError
from .linalg import MAX_DIM, ExactMatrix, is_unitary
from .ring import (
    ZOmega,
    ZW_ONE,
    ZW_SQRT2,
    ZW_ZERO,
    from_sqrt2_form,
    to_sqrt2_form,
)

_TOKEN = re.compile(r"\S+")
# Bounds on one entry that keep parsing cheap on hostile files; no matrix
# the tool writes comes near them.
MAX_SQRT2_EXPONENT = 4096
MAX_COEFFICIENT_DIGITS = 1000


def _parse_entry(token: str, line: int, column: int) -> tuple[ZOmega, int]:
    """(z, m) with z / sqrt(2)^m the entry's value."""
    if token == "0":
        return ZW_ZERO, 0
    if token == "1":
        return ZW_ONE, 0
    body, slash, tail = token.partition("/")
    parts = body.split(",")
    if len(parts) != 4:
        raise SynthError(
            f"entry must be a,b,c,d/m or 0 or 1, got {token[:40]!r}", line, column)
    if any(len(p.lstrip("+-")) > MAX_COEFFICIENT_DIGITS for p in (*parts, tail)):
        raise SynthError(
            f"entry numbers must have at most {MAX_COEFFICIENT_DIGITS} digits,"
            f" got {token[:40]!r}", line, column)
    numbers = [plain_int(p) for p in (*parts, tail if slash else "0")]
    if None in numbers:
        raise SynthError(f"entry must use integers, got {token[:40]!r}", line, column)
    a, b, c, d, m = numbers
    if m < 0:
        raise SynthError(
            f"denominator exponent must be >= 0, got {token[:40]!r}", line, column)
    if m > MAX_SQRT2_EXPONENT:
        raise SynthError(
            f"sqrt(2) exponent must be at most {MAX_SQRT2_EXPONENT},"
            f" got {token[:40]!r}", line, column)
    return from_sqrt2_form(a, b, c, d), m


def parse_matrix(text: str) -> ExactMatrix:
    """Matrix file: `dim n` header, then n rows of n entries; # starts a comment."""
    dim = 0
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        tokens = _TOKEN.finditer(line)
        first = next(tokens, None)
        if first is None:
            continue
        if dim == 0:
            second = next(tokens, None)
            if first.group() != "dim" or second is None or next(tokens, None):
                raise SynthError(
                    "expected header 'dim n'", lineno, first.start() + 1)
            dim = plain_int(second.group())
            if dim is None:
                raise SynthError(
                    f"bad dimension {second.group()!r}", lineno, second.start() + 1)
            if not 1 <= dim <= MAX_DIM:
                raise SynthError(
                    f"dimension must be 1..{MAX_DIM}, got {dim}",
                    lineno, second.start() + 1)
            continue
        if len(rows) == dim:
            raise SynthError(
                "content after last matrix row", lineno, first.start() + 1)
        entries = []
        for match in [first, *tokens]:
            entries.append(_parse_entry(match.group(), lineno, match.start() + 1))
        if len(entries) != dim:
            raise SynthError(
                f"expected {dim} entries per row, got {len(entries)}", lineno, 1)
        rows.append(entries)
    if dim == 0:
        raise SynthError("empty matrix file")
    if len(rows) != dim:
        raise SynthError(f"expected {dim} rows, got {len(rows)}")
    e = max(m for row in rows for _, m in row)
    # one sqrt(2) power per distinct nonzero gap; most entries have a gap of 0
    powers = {gap: ZW_SQRT2 ** gap for gap in {e - m for row in rows for _, m in row} if gap}
    return ExactMatrix(([z * powers[e - m] if m != e else z for z, m in row]
                        for row in rows), e)


def format_entry(z: ZOmega, e: int) -> str:
    a, b, c, d, m = to_sqrt2_form(z, e)
    if m == 0 and (b, c, d) == (0, 0, 0) and a in (0, 1):
        return str(a)
    return f"{a},{b},{c},{d}/{m}"


def render_matrix(m: ExactMatrix, comments: Sequence[str] = ()) -> str:
    lines = [f"# {comment}" for comment in comments]
    lines.append(f"dim {m.dim}")
    lines.extend(" ".join(format_entry(z, m.e) for z in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """The bytes of path, or of stdin for "-", decoded as UTF-8 whatever the
    locale, without one leading byte-order mark."""
    if path == "-" and sys.stdin is None:
        raise SynthError("standard input is closed")
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SynthError(f"input is not UTF-8 text: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_synth(args: argparse.Namespace) -> int:
    matrix = parse_matrix(_read_text(args.input))
    if args.debug:
        print(f"debug: numerators over sqrt(2)^{matrix.e}", file=sys.stderr)
        for i, row in enumerate(matrix.rows):
            internal = "  ".join(map(str, row))
            print(f"debug: row {i + 1}: {internal}", file=sys.stderr)
    dec = synthesize(matrix)
    if args.verify and not verify_decomposition(matrix, dec):
        raise VerificationError("elementary word does not reproduce the input")
    lines = [
        f"# dim {dec.dim}",
        f"# k {dec.source_k}",
        f"# rounds {len(dec.rounds)}",
        f"# word-length {len(dec.word)}",
    ]
    if args.debug:
        for i, rnd in enumerate(dec.rounds, 1):
            chain = ",".join(rnd.case_chain)
            mixing = sum(op.kind == "H" for op in rnd.left_ops + rnd.right_ops)
            print(f"debug: round {i}: k {rnd.k_before} -> {rnd.k_after}"
                  f" via {chain} ({mixing} mixing ops)", file=sys.stderr)
    if args.elementary:
        word = " ".join(str(op) for op in dec.word)
        lines.append(f"# word: {word if word else 'I'}")
    if dec.dim == 1:
        lines.append("# note: 1x1 input; circuit is the global phase on one idle qubit")
    circuit = emit(dec.word, dec.dim)
    counts = gate_counts(circuit)
    lines.append(f"# gates {counts['total']}")
    lines.append(f"# t-count {counts['t_count']}")
    lines.append(f"# ancilla {'yes' if counts['uses_ancilla'] else 'no'}")
    if args.verify and circuit_to_matrix(circuit) != circuit_target(matrix):
        raise VerificationError("circuit does not reproduce the input")
    if args.verify:
        lines.append("# verified exact")
    _write_text(args.out, "\n".join(lines) + "\n" + render_circuit(circuit))
    return 0


@functools.cache
def gate_pool(qubits: int) -> tuple[Gate, ...]:
    """The gates a random instance draws from, in draw order: H, S and T on
    each wire, a CNOT on each ordered pair of wires, then W."""
    return (*(Gate(name, (wire,)) for name in ("H", "S", "T") for wire in range(qubits)),
            *(Gate("CNOT", pair) for pair in itertools.permutations(range(qubits), 2)),
            Gate("W", (), 1))


def draw_circuit(qubits: int, budget: int, seed: int) -> Circuit:
    Circuit(qubits, ())  # rejects bad qubits before the draw
    rng = random.Random(seed * 1000003 + budget * 101 + qubits)
    pool = gate_pool(qubits)
    gates = tuple(rng.choice(pool) for _ in range(budget))
    return Circuit(qubits, gates)


def random_unitary(qubits: int, budget: int, seed: int) -> ExactMatrix:
    return circuit_to_matrix(draw_circuit(qubits, budget, seed))


def cmd_gen(args: argparse.Namespace) -> int:
    circuit = draw_circuit(args.qubits, args.budget, args.seed)
    matrix = circuit_to_matrix(circuit)
    word = "; ".join(str(g) for g in circuit.gates)
    text = render_matrix(matrix, comments=[
        f"generated by: qubits={args.qubits} budget={args.budget} seed={args.seed}",
        f"gate word: {word if word else '(empty)'}",
    ])
    _write_text(args.out, text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    matrix = parse_matrix(_read_text(args.matrix))
    if not is_unitary(matrix):
        raise NotUnitaryError(f"matrix in {args.matrix} is not unitary")
    circuit = parse_circuit(_read_text(args.circuit))
    expected = circuit_target(matrix)
    try:
        actual = circuit_to_matrix(circuit)
    except VerificationError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    if actual.dim != expected.dim:
        # a 1x1 or 3x3 matrix is checked padded, so name the circuit size it needs
        qubits = expected.dim.bit_length() - 1
        needs = f" (needs a {qubits}-qubit circuit)" if expected.dim != matrix.dim else ""
        print(f"mismatch: circuit acts on dimension {actual.dim}, "
              f"matrix has dimension {matrix.dim}{needs}", file=sys.stderr)
        return 1
    if actual != expected:
        print("mismatch: circuit does not equal the matrix", file=sys.stderr)
        return 1
    print("exact match")
    return 0


def _stats(xs: Sequence[int]) -> str:
    """Exact mean, rounded half-even to one decimal, and the maximum."""
    whole, tenths = divmod(round(Fraction(10 * sum(xs), len(xs))), 10)
    return f"{whole}.{tenths} {max(xs)}"


def cmd_bench(args: argparse.Namespace) -> int:
    dim = 2 ** args.qubits
    print(f"# qubits {args.qubits} trials {args.trials} seed {args.seed}")
    print("budget k_mean k_max word_mean word_max"
          " gates_mean gates_max t_mean t_max")
    for budget in args.budgets:
        ks, words, gates, tees = [], [], [], []
        for trial in range(args.trials):
            dec = synthesize(random_unitary(args.qubits, budget, args.seed + trial))
            counts = gate_counts(emit(dec.word, dim))
            ks.append(dec.source_k)
            words.append(len(dec.word))
            gates.append(counts["total"])
            tees.append(counts["t_count"])
        print(f"{budget} {_stats(ks)} {_stats(words)}"
              f" {_stats(gates)} {_stats(tees)}")
    return 0


def _integer(text: str, least: int | None = None) -> int:
    """A plain integer option; with `least` (0 or 1), a smaller value is
    refused as negative or as zero."""
    value = plain_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")
    if least is not None and value < least:
        raise argparse.ArgumentTypeError("must be non-negative" if value < 0
                                         else "must be positive")
    return value


def _budget_list(text: str) -> list[int]:
    try:
        return [_integer(part, 0) for part in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad budget list {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltasynth",
        description="Exact Clifford+T synthesis for unitaries over D[w].")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a circuit from a matrix file")
    synth.add_argument("input", help="matrix file, or - for standard input")
    synth.add_argument("--out", help="write the circuit here instead of stdout")
    synth.add_argument("--elementary", action="store_true",
                       help="include the elementary-operator word")
    synth.add_argument("--verify", action="store_true",
                       help="re-check the word and circuit exactly")
    synth.add_argument("--debug", action="store_true",
                       help="log internal form and per-round progress")
    synth.set_defaults(func=cmd_synth)

    gen = sub.add_parser("gen", help="generate a random unitary matrix file")
    gen.add_argument("--qubits", type=_integer, choices=(1, 2), required=True)
    gen.add_argument("--budget", type=functools.partial(_integer, least=0), required=True,
                     help="number of gates in the generating word")
    gen.add_argument("--seed", type=_integer, required=True)
    gen.add_argument("--out", help="write the matrix here instead of stdout")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="gate-count scaling over random instances")
    bench.add_argument("--qubits", type=_integer, choices=(1, 2), default=2)
    bench.add_argument("--budgets", type=_budget_list, default=[10, 20, 40],
                       help="comma-separated gate budgets")
    bench.add_argument("--trials", type=functools.partial(_integer, least=1), default=10)
    bench.add_argument("--seed", type=_integer, required=True)
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser("verify", help="check a circuit file against a matrix file")
    verify.add_argument("matrix")
    verify.add_argument("circuit")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SynthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, SynthError) else 2


if __name__ == "__main__":
    sys.exit(main())
