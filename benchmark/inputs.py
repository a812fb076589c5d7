"""Seeded benchmark inputs, made with the reference code only.

Every generator takes the workload seed and returns the same inputs for the
same seed.  Each workload draws a fixed number of inputs of each kind, so the
make-up of a round (and so the share of failing operations) never depends on
the seed; only the random content does.

Run as a script to write one workload's input files into a directory:

    python3 benchmark/inputs.py --workload verify --seed 1 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

from reference import (
    RefMatrix,
    render_circuit,
    render_matrix,
    simulate_circuit,
    word_product,
)

ONE_QUBIT_POOL = (("H", (0,), 0), ("S", (0,), 0), ("T", (0,), 0), ("W", (), 1))
TWO_QUBIT_POOL = (("H", (0,), 0), ("H", (1,), 0), ("S", (0,), 0), ("S", (1,), 0),
                  ("T", (0,), 0), ("T", (1,), 0), ("CNOT", (0, 1), 0),
                  ("CNOT", (1, 0), 0), ("W", (), 1))

# deep: one 2-qubit instance per target least exponent k; the largest
# dominates the round
DEEP_TARGET_K = (80, 100, 120, 140, 160, 180, 200, 300)

# corpus: fixed counts per kind; target exponents and word lengths cycle, so
# every seed has the same mix and only the drawn gates and operators differ
CORPUS_TARGET_K = tuple(range(2, 17))
CORPUS_INSTANCES_PER_QUBITS = 390
CORPUS_DIM3_WORDS = 260
CORPUS_DIM3_MAX_LEN = 12
CORPUS_PRODUCTS_PER_DIM = 520
CORPUS_PRODUCT_MAX_LEN = 3

# verify: (qubits, gates) of each random circuit
VERIFY_CIRCUITS = ((1, 3000),) * 8 + ((2, 3000),) * 8

# Files whose bytes are not UTF-8.  A matrix or circuit file that cannot be
# decoded is malformed input (exit 2).  They do not depend on the seed.
BAD_UTF8 = (
    ("bad_matrix", b"dim 2\n1 0\n0 1 # caf\xe9\n", None),
    ("bad_circuit", None, b"qubits 1\nH 0 # \xc3\x28\nH 0\n"),
)
IDENTITY_2 = b"# identity\ndim 2\n1 0\n0 1\n"
EMPTY_CIRCUIT_1 = b"qubits 1\n"


@dataclass
class Instance:
    """One matrix input with what the reference knows about it."""

    name: str
    dim: int
    matrix: RefMatrix
    text: str
    k: int


@dataclass
class VerifyCase:
    """One `verify` call: files and the exit code the documentation implies."""

    name: str
    matrix_bytes: bytes
    circuit_bytes: bytes
    expected_exit: int
    known_fault: bool = False


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def grown_instance(name, qubits, target, rng):
    """Product of random gates, drawn until its least exponent k reaches target.

    Fixing k rather than the word length keeps the work per input (which
    grows with k) nearly the same from seed to seed.
    """
    pool = ONE_QUBIT_POOL if qubits == 1 else TWO_QUBIT_POOL
    mat = RefMatrix.identity(1 << qubits)
    count = k = 0
    while k < target:
        gate = rng.choice(pool)
        mat.apply_gate(*gate, qubits)
        count += 1
        if gate[0] == "H":  # no other gate changes the least exponent
            k = mat.least_delta_exponent()
    return Instance(name, 1 << qubits, mat,
                    render_matrix(mat, [f"{name}: {count} random gates, k {k}"]), k)


def deep_instances(seed: int) -> list[Instance]:
    """One 2-qubit instance per target in DEEP_TARGET_K."""
    return [grown_instance(f"deep-k{target}", 2, target, _rng("deep", seed, target))
            for target in DEEP_TARGET_K]


def _alphabet(dim):
    ops = [("omega", j, 0, p) for j in range(1, dim + 1) for p in range(1, 8)]
    for j in range(1, dim + 1):
        for m in range(j + 1, dim + 1):
            ops += [("H", j, m, 0), ("X", j, m, 0)]
    return ops


def _word_instance(name, dim, word):
    mat = word_product(word, dim)
    return Instance(name, dim, mat, render_matrix(mat), mat.least_delta_exponent())


def corpus_instances(seed: int) -> list[Instance]:
    """Small matrices: random gate words, dim-3 words, short op products."""
    out = []
    for qubits in (1, 2):
        rng = _rng("corpus-gates", seed, qubits)
        for i in range(CORPUS_INSTANCES_PER_QUBITS):
            target = CORPUS_TARGET_K[i % len(CORPUS_TARGET_K)]
            out.append(grown_instance(f"gates-q{qubits}-{i}", qubits, target, rng))
    rng = _rng("corpus-dim3", seed)
    ops = _alphabet(3)
    for i in range(CORPUS_DIM3_WORDS):
        length = 1 + i % CORPUS_DIM3_MAX_LEN
        out.append(_word_instance(f"word-d3-{i}", 3,
                                  [rng.choice(ops) for _ in range(length)]))
    for dim in (2, 3, 4):
        rng = _rng("corpus-products", seed, dim)
        ops = _alphabet(dim)
        for i in range(CORPUS_PRODUCTS_PER_DIM):
            length = 1 + i % CORPUS_PRODUCT_MAX_LEN
            out.append(_word_instance(f"product-d{dim}-{i}", dim,
                                      [rng.choice(ops) for _ in range(length)]))
    return out


def _verify_pool(qubits):
    wires = range(qubits)
    pool = [(g, (w,), 0) for g in ("H", "S", "SDG", "T", "TDG", "X") for w in wires]
    if qubits == 2:
        pool += [("CNOT", (0, 1), 0), ("CNOT", (1, 0), 0)]
    return pool + [("W", (), p) for p in range(1, 8)]


def verify_cases(seed: int) -> list[VerifyCase]:
    """Random circuits with their reference matrix (exit 0), the same circuits
    with one more gate (exit 1), and the undecodable files (exit 2)."""
    out = []
    for i, (qubits, length) in enumerate(VERIFY_CIRCUITS):
        rng = _rng("verify", seed, i)
        pool = _verify_pool(qubits)
        gates = [rng.choice(pool) for _ in range(length)]
        exact = simulate_circuit(qubits, gates, False)
        matrix = render_matrix(exact).encode()
        extra = rng.choice(pool)
        extended = exact.copy()
        extended.apply_gate(*extra, qubits)
        if extended == exact:
            raise AssertionError(f"gate {extra} left the verify-{i} matrix unchanged")
        out.append(VerifyCase(f"match-{i}", matrix,
                              render_circuit(qubits, gates).encode(), 0))
        out.append(VerifyCase(f"mismatch-{i}", matrix,
                              render_circuit(qubits, gates + [extra]).encode(), 1))
    for name, matrix, circuit in BAD_UTF8:
        out.append(VerifyCase(name, matrix or IDENTITY_2, circuit or EMPTY_CIRCUIT_1,
                              2, known_fault=True))
    return out


def write_inputs(workload: str, seed: int, out_dir: Path) -> list[Path]:
    """Write a workload's input files; returns the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if workload == "verify":
        for case in verify_cases(seed):
            for suffix, data in ((".matrix", case.matrix_bytes),
                                 (".circuit", case.circuit_bytes)):
                path = out_dir / (case.name + suffix)
                path.write_bytes(data)
                written.append(path)
        return written
    instances = deep_instances(seed) if workload == "deep" else corpus_instances(seed)
    for inst in instances:
        path = out_dir / (inst.name + ".matrix")
        path.write_text(inst.text, encoding="utf-8")
        written.append(path)
    return written


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("deep", "corpus", "verify"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    paths = write_inputs(args.workload, args.seed, args.out)
    print(f"wrote {len(paths)} files to {args.out}")


if __name__ == "__main__":
    main()
