"""Seeded workload inputs: a sequence file and a sensitive-patterns file.

The same seed always gives byte-identical files.  Every workload is char
mode over the first `sigma` lowercase letters, with uniform random letters.
Sensitive patterns are either the windows at `positions` random positions
(so the secrets are patterns that really occur, as planted data would) or
`sample` patterns drawn from the distinct windows of the sequence.

Run as a script to write one workload's files:

    python3 perfbench/inputs.py --workload tpm-sparse --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import string
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """How a workload's input is drawn; workloads with equal shapes share inputs."""

    name: str
    n: int
    sigma: int
    k: int
    positions: int = 0
    sample: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    command: str  # "sanitize" or "verify"
    flags: tuple[str, ...]

    def option(self, flag: str) -> str:
        return self.flags[self.flags.index(flag) + 1]


SPARSE = Shape("sparse-200k", n=200_000, sigma=10, k=5, positions=200)
ETFS = Shape("etfs-400", n=400, sigma=10, k=3, sample=10)

WORKLOADS = {
    w.name: w
    for w in (
        # tau = 2 is the mean count of a 5-mer over 10 letters at n = 200k, so about
        # 60% of the 5-mers are frequent (count >= tau) and must not be lost.
        Workload("tpm-sparse", SPARSE, "sanitize", ("--pipeline", "tpm", "--k", "5", "--tau", "2")),
        Workload("etfs-sparse", ETFS, "sanitize", ("--pipeline", "etfs", "--k", "3")),
        # The candidate is the tfs output of the same input, made once per run.
        Workload("verify-tfs", SPARSE, "verify", ("--level", "all", "--k", "5")),
    )
}


def generate(shape: Shape, seed: int) -> tuple[str, list[str]]:
    """The sequence and its sorted, distinct sensitive patterns."""
    rng = random.Random(f"{shape.name}:{seed}")
    text = "".join(rng.choices(string.ascii_lowercase[: shape.sigma], k=shape.n))
    k = shape.k
    if shape.positions:
        starts = rng.sample(range(shape.n - k + 1), shape.positions)
        patterns = {text[i : i + k] for i in starts}
    else:
        distinct = sorted({text[i : i + k] for i in range(shape.n - k + 1)})
        patterns = set(rng.sample(distinct, shape.sample))
    return text, sorted(patterns)


def write_inputs(shape: Shape, seed: int, out_dir: str) -> tuple[str, str]:
    """Write `w.txt` and `patterns.txt` into `out_dir`; return their paths."""
    text, patterns = generate(shape, seed)
    os.makedirs(out_dir, exist_ok=True)
    seq_path = os.path.join(out_dir, "w.txt")
    pat_path = os.path.join(out_dir, "patterns.txt")
    with open(seq_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    with open(pat_path, "w", encoding="utf-8") as fh:
        fh.write("".join(p + "\n" for p in patterns))
    return seq_path, pat_path


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for path in write_inputs(WORKLOADS[args.workload].shape, args.seed, args.out):
        print(f"{path} sha256={digest(path)}")


if __name__ == "__main__":
    main()
