"""Seeded input generators and the three benchmark workloads.

Each workload writes its input files into a directory and runs one rleacs
CLI command on them. Generators take their sizes as arguments, so the same
code path with smaller sizes yields the miniature inputs that are checked
against the quadratic oracle.

Run as a script to generate one workload's inputs (this is the timed part
of set-up, done in a fresh interpreter):

    python3 perfbench/workloads.py --workload pair_rle_large --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Callable

BASES = "acgt"
FASTA_WIDTH = 60
RLE_TOKENS_PER_LINE = 16

# --seed selects one of this many input variants (seed mod VARIANTS); exact
# outputs of the seed program are recorded for every variant in expected.json.
VARIANTS = 32


def geometric(rng: random.Random, mean: float) -> int:
    """Run length >= 1 with the given mean."""
    if mean <= 1.0:
        return 1
    return 1 + int(math.log1p(-rng.random()) / math.log1p(-1.0 / mean))


def symbol_walk(rng: random.Random, count: int) -> list[str]:
    """count bases with no base repeated back to back, so runs stay maximal."""
    out: list[str] = []
    prev = ""
    for _ in range(count):
        prev = rng.choice([b for b in BASES if b != prev])
        out.append(prev)
    return out


def text_runs(text: str) -> list[tuple[str, int]]:
    return [(ch, sum(1 for _ in grp)) for ch, grp in groupby(text)]


def runs_text(runs: list[tuple[str, int]]) -> str:
    return "".join(ch * n for ch, n in runs)


def fasta(records: list[tuple[str, str]]) -> str:
    lines = []
    for name, text in records:
        lines.append(f">{name}")
        lines.extend(text[k : k + FASTA_WIDTH] for k in range(0, len(text), FASTA_WIDTH))
    return "\n".join(lines) + "\n"


def rle_text(records: list[tuple[str, list[tuple[str, int]]]]) -> str:
    lines = []
    for name, runs in records:
        lines.append(f">{name}")
        tokens = [f"{ch}{n}" for ch, n in runs]
        for k in range(0, len(tokens), RLE_TOKENS_PER_LINE):
            lines.append(" ".join(tokens[k : k + RLE_TOKENS_PER_LINE]))
    return "\n".join(lines) + "\n"


def giant_runs(
    rng: random.Random,
    runs: int,
    mean_run: float,
    big: int,
    big_lo: int,
    big_hi: int,
    bound: int,
) -> list[tuple[str, int]]:
    """Geometric runs plus `big` runs in [big_lo, big_hi] and one filler run.

    The filler brings the decoded length, sentinel included, to exactly
    `bound`; at the 2^62 bound two such sequences total 2^63, past int64.
    """
    syms = symbol_walk(rng, runs)
    lengths = [geometric(rng, mean_run) for _ in range(runs)]
    spots = rng.sample(range(runs), big + 1)
    for k in spots[:big]:
        lengths[k] = rng.randint(big_lo, big_hi)
    filler = spots[big]
    lengths[filler] = 0
    lengths[filler] = bound - 1 - sum(lengths)
    if lengths[filler] < 1:
        raise ValueError("sizes leave no room for the filler run")
    return list(zip(syms, lengths))


def family_texts(
    rng: random.Random, records: int, root_len: int, mean_run: float, rate: float
) -> list[str]:
    """Independent substitution/insertion/deletion mutants of one random root."""
    root: list[str] = []
    for ch in symbol_walk(rng, root_len):
        root.extend(ch * geometric(rng, mean_run))
    del root[root_len:]
    texts = []
    for _ in range(records):
        out: list[str] = []
        for ch in root:
            if rng.random() >= rate:
                out.append(ch)
                continue
            op = rng.randrange(3)
            if op == 0:
                out.append(rng.choice([b for b in BASES if b != ch]))
            elif op == 1:
                out.append(ch)
                out.append(rng.choice(BASES))
        texts.append("".join(out))
    return texts


def long_runs(rng: random.Random, length: int, mean_run: float) -> list[tuple[str, int]]:
    """Geometric runs whose lengths sum to exactly `length`."""
    runs: list[tuple[str, int]] = []
    total = 0
    prev = ""
    while total < length:
        prev = rng.choice([b for b in BASES if b != prev])
        n = min(geometric(rng, mean_run), length - total)
        runs.append((prev, n))
        total += n
    return runs


@dataclass(frozen=True)
class Inputs:
    """Generated files plus the facts the checks need about them."""

    files: dict[str, str]
    # record name -> (runs, decoded length), in file order
    sizes: dict[str, tuple[int, int]]

    def write(self, directory: Path) -> list[Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, text in self.files.items():
            path = directory / name
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        return paths


def _sizes(records: list[tuple[str, list[tuple[str, int]]]]) -> dict[str, tuple[int, int]]:
    return {name: (len(runs), sum(n for _, n in runs)) for name, runs in records}


def gen_pair_rle(rng: random.Random, **sizes) -> Inputs:
    records = [(name, giant_runs(rng, **sizes)) for name in ("X", "Y")]
    return Inputs({"pair.rle": rle_text(records)}, _sizes(records))


def gen_family(rng: random.Random, **sizes) -> Inputs:
    texts = family_texts(rng, **sizes)
    records = [(f"s{k:02d}", text) for k, text in enumerate(texts)]
    return Inputs(
        {"family.fasta": fasta(records)},
        _sizes([(name, text_runs(text)) for name, text in records]),
    )


def gen_longruns(rng: random.Random, records: int, **sizes) -> Inputs:
    runs = [(f"r{k}", long_runs(rng, **sizes)) for k in range(records)]
    return Inputs(
        {"longruns.fasta": fasta([(name, runs_text(r)) for name, r in runs])},
        _sizes(runs),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]
    generator: Callable[..., Inputs]
    # generator keyword arguments: full size and miniature (decoded <= 2000)
    full: dict
    mini: dict

    def generate(self, seed: int, mini: bool = False) -> Inputs:
        rng = random.Random(f"rleacs-bench:{self.name}:{seed % VARIANTS}")
        return self.generator(rng, **(self.mini if mini else self.full))

    def argv(self, paths: list[Path]) -> list[str]:
        return [*self.command, *map(str, paths)]

    @property
    def threads(self) -> int:
        """Threads the command runs on (its --threads value, else 1)."""
        if "--threads" not in self.command:
            return 1
        return int(self.command[self.command.index("--threads") + 1])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pair_rle_large",
            why="engine at scale from run-level input: two builds at N=2^15 runs, "
            "decoded totals past int64, no decoding and no matrix scheduling",
            command=("dist", "--format", "rle"),
            generator=gen_pair_rle,
            full=dict(
                runs=1 << 14, mean_run=8.0, big=8,
                big_lo=1 << 40, big_hi=1 << 48, bound=1 << 62,
            ),
            mini=dict(runs=64, mean_run=8.0, big=8, big_lo=8, big_hi=32, bound=2000),
        ),
        Workload(
            name="matrix_fasta_family",
            why="phylogeny use: 10 similar FASTA records, 45 pairs of small builds "
            "on 2 threads, so per-build overhead and scheduling matter",
            command=("matrix", "--threads", "2"),
            generator=gen_family,
            full=dict(records=10, root_len=1000, mean_run=1.5, rate=0.05),
            mini=dict(records=4, root_len=300, mean_run=1.5, rate=0.05),
        ),
        Workload(
            name="ingest_fasta_longruns",
            why="decoded-length-bound FASTA ingest of 2x5e6 characters in ~1k runs "
            "each; engine-side changes should not move it",
            command=("dist",),
            generator=gen_longruns,
            full=dict(records=2, length=5_000_000, mean_run=5000.0),
            mini=dict(records=2, length=1000, mean_run=50.0),
        ),
    )
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's input files")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # the set-up being timed includes a fresh `import rleacs`
    import rleacs  # noqa: F401

    WORKLOADS[args.workload].generate(args.seed).write(Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
