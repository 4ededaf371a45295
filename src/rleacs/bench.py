"""Scaling experiments over synthetic run-length inputs.

Sequences are built directly at the token level, so the decoded length can be
pushed far past anything that could be materialized (run lengths up to 10^9)
while the engine's work stays proportional to the number of runs. Four
experiments:

* a doubling sweep over the total run count, reporting the time ratio per
  doubling (the envelope for an n log n build is ~2.2 at these sizes);
* a fixed-run-count sweep that scales every run length by orders of
  magnitude, which must leave the runtime essentially unchanged;
* adversarial inputs for the suffix order, periodic runs and Fibonacci run
  lengths, whose prefix doubling takes many more rounds than a random
  pair's;
* one giant unary pair whose exact total has a closed form, as an
  end-to-end sanity anchor at decoded length 10^9.

Three more rows time the layer before them all, on texts held in memory,
with the tracemalloc peak of one read: a long-run FASTA text, whose work
follows the decoded length; a run-length text shaped like a large pair, and
a FASTA family of FAMILY_INGEST short records, each read into sequences.

Two family rows time dist_matrix's stages, one build, one column per
record and its batched totals, then the pairwise distances, on k = 40 and
k = 160 mutants of one random root (mutant_family), with no gate. Every
engine row also reports the trie's node and internal node counts, the
bytes per run of its lifting rows (the O(N log N) part of the engine's
memory), and order_s, the suffix order's own time (build_suffix_order).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from rleacs.engine import AcsEngine, pair_distance
from rleacs.rle import (
    FIRST_SYMBOL_ID,
    RleSeq,
    build_text_sequences,
    read_fasta_records,
    read_rle_records,
)
from rleacs.suffixes import build_suffix_order

DOUBLING_MIN = 1 << 14
DOUBLING_MAX = 1 << 17
RUN_COUNT_FIXED = 100_000
RUN_SCALES = (10, 1_000_000)
GIANT_LONG = 10**9
GIANT_SHORT = 10**6
# the ingest row: records of this many characters over acgt, in runs of
# about INGEST_MEAN_RUN, FASTA_WIDTH to a line
INGEST_RECORDS = 2
INGEST_LENGTH = 10**6
INGEST_MEAN_RUN = 5000
FASTA_WIDTH = 60
# the run-length ingest row: records of RLE_RUNS runs over acgt with counts
# of mean RLE_MEAN_RUN, RLE_BIG of them near 2^48, RLE_PER_LINE tokens to a
# line
RLE_RECORDS = 2
RLE_RUNS = 1 << 14
RLE_MEAN_RUN = 8
RLE_BIG = 8
RLE_PER_LINE = 16
# the family rows: FAMILY_SIZES records, each a mutant of one root of
# FAMILY_LENGTH characters over acgt in runs of mean FAMILY_MEAN_RUN, every
# character substituted, deleted or followed by an insertion with total
# probability FAMILY_RATE
FAMILY_SIZES = (40, 160)
# the family ingest row reads this many mutants, as FASTA
FAMILY_INGEST = 1000
FAMILY_LENGTH = 1000
FAMILY_MEAN_RUN = 1.5
FAMILY_RATE = 0.05


@dataclass(frozen=True)
class BenchRow:
    label: str
    tokens: int
    decoded: int
    build_s: float
    query_s: float
    order_s: float
    nodes: int
    internal: int
    row_bytes: int
    lsum: int

    @property
    def total_s(self) -> float:
        return self.build_s + self.query_s

    @property
    def row_bytes_per_run(self) -> float:
        """The lifting rows' bytes over the pair's run count (tokens less the two terminators)."""
        return self.row_bytes / (self.tokens - 2)


def synth_pair(
    total_runs: int, scale: int, seed: int, alphabet_size: int = 4
) -> tuple[RleSeq, RleSeq]:
    """Random pair with the given total content run count and length scale.

    Symbols step by 1 to alphabet_size - 1 (mod alphabet_size), so neighbors
    differ, and are all drawn before any length: the same seed yields the
    same symbol structure at every scale, and only the run-length magnitudes
    change, which is what the decoupling experiment needs.
    """
    rng = np.random.default_rng(seed)
    half = max(total_runs // 2, 1)
    counts = (half, total_runs - half)
    walks = [
        rng.integers(alphabet_size) + np.cumsum(rng.integers(1, alphabet_size, size=count))
        for count in counts
    ]
    seqs = []
    for count, walk in zip(counts, walks):
        lengths = rng.integers(scale, 2 * scale, size=count)
        runs = np.column_stack((FIRST_SYMBOL_ID + walk % alphabet_size, lengths))
        seqs.append(RleSeq("bench", runs))
    return seqs[0], seqs[1]


def periodic_pair(total_runs: int, scale: int = 8) -> tuple[RleSeq, RleSeq]:
    """Two symbols alternating, every run scale long, total_runs runs split over a pair.

    Every run-start suffix of one sequence is a prefix of the longer ones up
    to its terminator, so prefix doubling takes about log2(total_runs)
    rounds, and the query trie is one deep chain per symbol.
    """
    syms = FIRST_SYMBOL_ID + np.arange(total_runs) % 2
    return _split_pair(np.column_stack((syms, np.full(total_runs, scale))))


def fibonacci_pair(total_runs: int, scale: int = 8) -> tuple[RleSeq, RleSeq]:
    """Two symbols alternating, run lengths scale or 2 * scale along the Fibonacci word.

    The Fibonacci word (0 -> 01, 1 -> 0) holds repeats as long as a fixed
    share of itself without being periodic, so its suffixes share long
    prefixes everywhere: prefix doubling takes about log2(total_runs)
    rounds, while the query trie stays shallow.
    """
    shorter, word = np.zeros(1, dtype=np.int64), np.array([0, 1], dtype=np.int64)
    while len(word) < total_runs:
        shorter, word = word, np.concatenate((word, shorter))
    syms = FIRST_SYMBOL_ID + np.arange(total_runs) % 2
    return _split_pair(np.column_stack((syms, scale * (1 + word[:total_runs]))))


def _split_pair(runs: np.ndarray) -> tuple[RleSeq, RleSeq]:
    half = max(len(runs) // 2, 1)
    return RleSeq("bench", runs[:half]), RleSeq("bench", runs[half:])


ADVERSARIAL = {"periodic": periodic_pair, "fibonacci": fibonacci_pair}


def _measure(label: str, first: RleSeq, second: RleSeq, reps: int) -> BenchRow:
    best_build = best_query = best_order = float("inf")
    nodes = internal = row_bytes = lsum = 0
    for _ in range(max(reps, 1)):
        t0 = time.perf_counter()
        engine = AcsEngine(first, second)
        column = engine.column(1)
        t1 = time.perf_counter()
        lsum = engine.total(0, column)
        t2 = time.perf_counter()
        best_build = min(best_build, t1 - t0)
        best_query = min(best_query, t2 - t1)
        nodes = engine.trie.node_count
        internal = engine.trie.internal
        row_bytes = sum(row.nbytes for row in engine.trie.up)
        t0 = time.perf_counter()
        build_suffix_order(first, second)
        best_order = min(best_order, time.perf_counter() - t0)
    return BenchRow(
        label=label,
        tokens=len(first.runs) + len(second.runs) + 2,
        decoded=first.content_length + second.content_length,
        build_s=best_build,
        query_s=best_query,
        order_s=best_order,
        nodes=nodes,
        internal=internal,
        row_bytes=row_bytes,
        lsum=lsum,
    )


def _round_robin(pairs: dict[str, tuple[RleSeq, RleSeq]], reps: int) -> list[BenchRow]:
    """One row per labelled pair, each the best of reps repetitions on it,
    with the best order_s of those repetitions.

    The repetitions go round all the pairs in turn, so a stretch of slower
    host speed reaches every row alike rather than the rows it happens to
    overlap.
    """
    turns = [
        [_measure(label, *pair, 1) for label, pair in pairs.items()]
        for _ in range(max(reps, 1))
    ]
    return [
        replace(min(rows, key=lambda row: row.total_s), order_s=min(row.order_s for row in rows))
        for rows in zip(*turns)
    ]


def doubling_sweep(
    max_tokens: int = DOUBLING_MAX,
    *,
    seed: int = 42,
    reps: int = 2,
    scale: int = 8,
) -> list[BenchRow]:
    """Time the engine at run counts 2^14, 2^15, ... up to max_tokens (_round_robin)."""
    if max_tokens < DOUBLING_MIN:
        raise ValueError(f"doubling sweep needs max_tokens >= {DOUBLING_MIN}, got {max_tokens}")
    pairs = {}
    n = DOUBLING_MIN
    while n <= max_tokens:
        pairs[f"runs={n}"] = synth_pair(n, scale, seed)
        n *= 2
    return _round_robin(pairs, reps)


def runlength_sweep(
    total_runs: int = RUN_COUNT_FIXED,
    scales: tuple[int, ...] = RUN_SCALES,
    *,
    seed: int = 42,
    reps: int = 2,
) -> list[BenchRow]:
    """Fixed run count, run lengths scaled from 10 up to 10^6 (_round_robin)."""
    pairs = {
        f"runs={total_runs} scale={scale}": synth_pair(total_runs, scale, seed) for scale in scales
    }
    return _round_robin(pairs, reps)


def adversarial_rows(total_runs: int = DOUBLING_MIN, *, reps: int = 2) -> list[BenchRow]:
    """One row per ADVERSARIAL generator at total_runs runs."""
    return [
        _measure(f"{name} runs={total_runs}", *make(total_runs), reps)
        for name, make in ADVERSARIAL.items()
    ]


def giant_unary(reps: int = 1) -> tuple[BenchRow, Fraction, Fraction]:
    """One-run sequences with decoded lengths 10^9 and 10^6.

    Returns the timing row, the measured average as an exact rational, and
    the closed-form value (m(x-m) + m(m+1)/2) / x it must equal.
    """
    first = RleSeq("giant", [[FIRST_SYMBOL_ID, GIANT_LONG]])
    second = RleSeq("small", [[FIRST_SYMBOL_ID, GIANT_SHORT]])
    row = _measure("unary 1e9 vs 1e6", first, second, reps)
    x, m = GIANT_LONG, GIANT_SHORT
    expected = Fraction(m * (x - m) + m * (m + 1) // 2, x)
    return row, Fraction(row.lsum, x), expected


def mutant_family(records: int, seed: int = 42) -> list[RleSeq]:
    """records independent mutants of one random root of FAMILY_LENGTH characters over acgt.

    The root's runs have geometric lengths of mean FAMILY_MEAN_RUN,
    neighbours differing. Each character of a mutant is, with probability
    FAMILY_RATE / 3 each, replaced by another symbol, dropped, or followed
    by one random symbol; the result is run-encoded, so mutations may merge
    runs.
    """
    length, rate = FAMILY_LENGTH, FAMILY_RATE
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.integers(1, 4, size=length)) % 4
    root = np.repeat(walk, rng.geometric(1 / FAMILY_MEAN_RUN, size=length))[:length]
    family = []
    for k in range(records):
        draw = rng.random(length)
        chars = root.copy()
        swap = draw < rate / 3
        chars[swap] = (chars[swap] + rng.integers(1, 4, size=int(swap.sum()))) % 4
        keep = (draw < rate / 3) | (draw >= 2 * rate / 3)
        insert = (draw[keep] >= 2 * rate / 3) & (draw[keep] < rate)
        text = np.repeat(chars[keep], 1 + insert)
        # each insertion is the second copy of its character
        added = np.cumsum(1 + insert)[insert] - 1
        text[added] = rng.integers(0, 4, size=len(added))
        starts = np.flatnonzero(np.diff(text, prepend=-1))
        lengths = np.diff(starts, append=len(text))
        family.append(RleSeq(f"m{k}", np.column_stack((FIRST_SYMBOL_ID + text[starts], lengths))))
    return family


def family_row(records: int, seed: int = 42, *, reps: int = 1) -> tuple:
    """dist_matrix's stages on mutant_family(records), one thread, timed apart:
    (label, runs, build_s, columns_s, totals_s, distances_s).

    Each column is annotated, answers the family in one batch and is
    dropped, as dist_matrix does, so columns_s and totals_s are sums over
    the records. Each stage's time is the best of reps passes.
    """
    seqs = mutant_family(records, seed)
    best = [float("inf")] * 4
    for _ in range(max(reps, 1)):
        t0 = time.perf_counter()
        engine = AcsEngine(*seqs)
        times = [time.perf_counter() - t0, 0.0, 0.0, 0.0]
        totals = []
        for j in range(records):
            t0 = time.perf_counter()
            column = engine.column(j)
            t1 = time.perf_counter()
            totals.append(engine.totals(j, column))
            times[1] += t1 - t0
            times[2] += time.perf_counter() - t1
        lengths = [seq.content_length for seq in seqs]
        t0 = time.perf_counter()
        for i in range(records):
            for j in range(i + 1, records):
                pair_distance(lengths[i], lengths[j], totals[j][i], totals[i][j], "e")
        times[3] = time.perf_counter() - t0
        best = [min(a, b) for a, b in zip(best, times)]
    runs = sum(seq.run_count for seq in seqs)
    return (f"family k={records} {FAMILY_LENGTH} chars", runs, *best)


def format_family(rows: list[tuple]) -> str:
    """Plain text table of family_row's rows."""
    lines = [
        f"{'label':<28} {'runs':>9} {'build_s':>9} {'columns_s':>9} "
        f"{'totals_s':>9} {'distances_s':>11}"
    ]
    for label, runs, build, columns, totals, distances in rows:
        lines.append(
            f"{label:<28} {runs:>9} {build:>9.4f} {columns:>9.4f} "
            f"{totals:>9.4f} {distances:>11.4f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class IngestRow:
    label: str
    chars: int
    runs: int
    read_s: float
    peak_bytes: int  # the tracemalloc peak of one read

    @property
    def chars_per_s(self) -> float:
        return self.chars / self.read_s


def long_run_fasta(seed: int) -> str:
    """FASTA text of INGEST_RECORDS records of INGEST_LENGTH characters over acgt.

    Run lengths are uniform in [1, 2 * INGEST_MEAN_RUN), neighbouring runs
    differ, and the last run drawn is stretched if the runs fall short; each
    record is cut at INGEST_LENGTH and written FASTA_WIDTH characters to a
    line.
    """
    rng = np.random.default_rng(seed)
    bases = np.frombuffer(b"acgt", dtype=np.uint8)
    count = INGEST_LENGTH // INGEST_MEAN_RUN + 1
    full = INGEST_LENGTH // FASTA_WIDTH * FASTA_WIDTH
    parts = []
    for k in range(INGEST_RECORDS):
        lengths = rng.integers(1, 2 * INGEST_MEAN_RUN, size=count)
        lengths[-1] += max(INGEST_LENGTH - int(lengths.sum()), 0)
        syms = bases[np.cumsum(rng.integers(1, len(bases), size=count)) % len(bases)]
        body = np.repeat(syms, lengths)[:INGEST_LENGTH]
        lines = np.full((full // FASTA_WIDTH, FASTA_WIDTH + 1), ord("\n"), dtype=np.uint8)
        lines[:, :-1] = body[:full].reshape(-1, FASTA_WIDTH)
        tail = body[full:].tobytes().decode("ascii")
        parts.append(f">r{k}\n" + lines.tobytes().decode("ascii") + (tail + "\n" if tail else ""))
    return "".join(parts)


def run_length_text(seed: int) -> str:
    """Run-length text of RLE_RECORDS records of RLE_RUNS runs over acgt.

    Neighbouring symbols differ; counts are geometric with mean RLE_MEAN_RUN,
    and RLE_BIG of each record's are drawn from [2^47, 2^48) instead; each
    record is written RLE_PER_LINE tokens to a line.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for k in range(RLE_RECORDS):
        walk = np.cumsum(rng.integers(1, 4, size=RLE_RUNS)) % 4
        counts = rng.geometric(1 / RLE_MEAN_RUN, size=RLE_RUNS)
        counts[rng.choice(RLE_RUNS, RLE_BIG, replace=False)] = rng.integers(
            1 << 47, 1 << 48, size=RLE_BIG
        )
        tokens = [f"{'acgt'[s]}{c}" for s, c in zip(walk.tolist(), counts.tolist())]
        lines = [" ".join(tokens[i : i + RLE_PER_LINE]) for i in range(0, RLE_RUNS, RLE_PER_LINE)]
        parts.append(f">r{k}\n" + "\n".join(lines) + "\n")
    return "".join(parts)


def _ingest_row(label: str, text: str, read, reps: int) -> IngestRow:
    """Best of reps calls of read(text), which returns the text's run arrays,
    and the traced peak of one more call, untimed."""
    best = float("inf")
    runs = 0
    for _ in range(max(reps, 1)):
        t0 = time.perf_counter()
        arrays = read(text)
        best = min(best, time.perf_counter() - t0)
        runs = sum(len(array) for array in arrays)
    tracemalloc.start()
    try:
        read(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return IngestRow(label, chars=len(text), runs=runs, read_s=best, peak_bytes=peak)


def ingest_rows(seed: int = 42, *, reps: int = 2) -> list[IngestRow]:
    """Best of reps reads, from memory, of long_run_fasta(seed) into records,
    and of run_length_text(seed) and of mutant_family(FAMILY_INGEST, seed),
    as FASTA with one line per body, into sequences (build_text_sequences)."""

    def built(read):
        return lambda text: [seq.runs for seq in build_text_sequences(read(text))[0]]

    # each symbol id's letter in mutant_family
    letters = np.frombuffer(b" " * FIRST_SYMBOL_ID + b"acgt", dtype=np.uint8)
    family = "".join(
        f">{seq.name}\n{letters[np.repeat(*seq.runs.T)].tobytes().decode()}\n"
        for seq in mutant_family(FAMILY_INGEST, seed)
    )
    fasta = f"fasta {INGEST_RECORDS}x{INGEST_LENGTH} run~{INGEST_MEAN_RUN}"
    rle = f"rle {RLE_RECORDS}x{RLE_RUNS} runs {RLE_PER_LINE}/line"
    rows = (
        (fasta, long_run_fasta(seed), lambda text: [r.runs for r in read_fasta_records(text)]),
        (rle, run_length_text(seed), built(read_rle_records)),
        (f"fasta family k={FAMILY_INGEST}", family, built(read_fasta_records)),
    )
    return [_ingest_row(label, text, read, reps) for label, text, read in rows]


def format_ingest(rows: list[IngestRow]) -> str:
    """Plain text table of the ingest rows."""
    lines = [
        f"{'label':<28} {'chars':>9} {'runs':>14} {'read_s':>9} {'chars_per_s':>11} "
        f"{'peak_MiB':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row.label:<28} {row.chars:>9} {row.runs:>14} {row.read_s:>9.4f} "
            f"{row.chars_per_s:>11.3g} {row.peak_bytes / 2**20:>9.3f}"
        )
    return "\n".join(lines)


def ratios(rows: list[BenchRow]) -> list[float]:
    """Total-time ratio of each row to the previous one (first entry 1.0)."""
    out = [1.0]
    for prev, cur in zip(rows, rows[1:]):
        out.append(cur.total_s / prev.total_s if prev.total_s > 0 else float("inf"))
    return out


def format_table(rows: list[BenchRow], with_ratios: bool = True) -> str:
    """Plain text table, one row per measurement."""
    lines = [
        f"{'label':<28} {'tokens':>9} {'decoded':>14} {'build_s':>9} "
        f"{'query_s':>9} {'order_s':>9} {'nodes':>9} {'internal':>9} {'rows_B/run':>10} "
        f"{'ratio':>6}"
    ]
    rat = ratios(rows) if with_ratios else [float("nan")] * len(rows)
    for row, r in zip(rows, rat):
        ratio_text = f"{r:.2f}" if with_ratios else "-"
        lines.append(
            f"{row.label:<28} {row.tokens:>9} {row.decoded:>14} "
            f"{row.build_s:>9.4f} {row.query_s:>9.4f} {row.order_s:>9.4f} "
            f"{row.nodes:>9} {row.internal:>9} "
            f"{row.row_bytes_per_run:>10.1f} {ratio_text:>6}"
        )
    return "\n".join(lines)
