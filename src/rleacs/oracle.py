"""Independent brute-force reference implementations.

The brute functions work on decoded text in quadratic-or-worse time, guarded
by explicit size budgets so a typo in a caller cannot silently burn minutes;
the run walker behind suffix_compare and suffix_lcp, and run_walk_total,
step through suffixes run by run, so they also reach decoded lengths no oracle
could expand. None of these share logic with the fast path; they are trusted
baselines for testing and for the randomized cross-check harness. The one
exception is per_position_lengths, which answers every position from an
engine's own trie, as the check on the engine's per-run closed forms. The
walker ends each side of a pair in its own terminator, id 0 after the first
sequence and id 1 after the second; the brute sort does the same, and sorts
a whole family too. reference_dist evaluates the distance's definition, four
addends, to REFERENCE_DIGITS decimal digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from rleacs.rle import RleSeq
from rleacs.suffixes import SuffixOrder

if TYPE_CHECKING:
    from rleacs.engine import AcsEngine
    from rleacs.symbol_tries import Column

DEFAULT_POSITION_CAP = 1_000_000
# with x == y <= 2^62 and the two gaps cancelling but for one unit, a
# nonzero distance can be 10^-94 of its addends; a reference this precise
# still rounds it to the correct float
REFERENCE_DIGITS = 160


@dataclass(frozen=True)
class OracleBudget:
    """Hard ceilings on the decoded sizes the oracle will accept."""

    max_len: int = 2000
    max_pair_product: int = 4_000_000

    def check(self, x_len: int, y_len: int) -> None:
        if x_len > self.max_len or y_len > self.max_len:
            raise ValueError(
                f"oracle budget exceeded: lengths ({x_len}, {y_len}), max {self.max_len}"
            )
        if x_len * y_len > self.max_pair_product:
            raise ValueError(
                f"oracle budget exceeded: product {x_len * y_len} > {self.max_pair_product}"
            )


DEFAULT_BUDGET = OracleBudget()


def _scan_match_lengths(x_text: str, y_text: str) -> list[int]:
    """Character-at-a-time definition, kept as a cross-check for the DP."""
    out = []
    for i in range(len(x_text)):
        best = 0
        for j in range(len(y_text)):
            k = 0
            while i + k < len(x_text) and j + k < len(y_text) and x_text[i + k] == y_text[j + k]:
                k += 1
            best = max(best, k)
        out.append(best)
    return out


def brute_match_lengths(
    x_text: str, y_text: str, budget: OracleBudget = DEFAULT_BUDGET
) -> list[int]:
    """For each start i in x, the longest prefix of x[i:] occurring anywhere in y.

    Row DP over match-extension counts: T[i][j] is the length of the longest
    common prefix of x[i:] and y[j:], computed from row i+1.
    """
    budget.check(len(x_text), len(y_text))
    if not x_text or not y_text:
        return [0] * len(x_text)
    x = np.frombuffer(x_text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    y = np.frombuffer(y_text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    lengths = np.zeros(len(x), dtype=np.int64)
    row = np.zeros(len(y), dtype=np.int64)
    for i in range(len(x) - 1, -1, -1):
        shifted = np.empty_like(row)
        shifted[:-1] = row[1:]
        shifted[-1] = 0
        row = np.where(y == x[i], shifted + 1, 0)
        lengths[i] = row.max()
    return lengths.tolist()


def brute_acs(x_text: str, y_text: str, budget: OracleBudget = DEFAULT_BUDGET) -> Fraction:
    """Average match length, as an exact rational."""
    lengths = brute_match_lengths(x_text, y_text, budget)
    return Fraction(sum(lengths), len(lengths))


def reference_dist(
    x_len: int, y_len: int, acs_xy: Fraction, acs_yx: Fraction, log_base: str = "e"
) -> tuple[Decimal, Decimal]:
    """The distance as its four-addend definition at REFERENCE_DIGITS digits.

    Returns the value and half the sum of the addends' absolute values, the
    scale a correctly evaluated float's error is measured against.
    """
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        lx, ly = Decimal(x_len).ln(), Decimal(y_len).ln()
        if log_base != "e":
            lx, ly = (v / Decimal(int(log_base)).ln() for v in (lx, ly))
        terms = [
            ly * acs_xy.denominator / acs_xy.numerator,
            lx * acs_yx.denominator / acs_yx.numerator,
            -lx * 2 / (x_len + 1),
            -ly * 2 / (y_len + 1),
        ]
        return sum(terms) / 2, sum(map(abs, terms)) / 2


def reference_float(
    x_len: int, y_len: int, acs_xy: Fraction, acs_yx: Fraction, log_base: str = "e"
) -> float:
    """reference_dist's value rounded to a float: the correctly rounded distance.

    A value within the reference's own rounding error of 0, 10^-150 of the
    addends, is taken for an exact cancellation and reads 0.0. With x == y
    a nonzero distance stays above 10^-94 of its addends (see
    REFERENCE_DIGITS).
    """
    ref, scale = reference_dist(x_len, y_len, acs_xy, acs_yx, log_base)
    return 0.0 if abs(ref) <= scale * Decimal(10) ** (10 - REFERENCE_DIGITS) else float(ref)


def _lcp(a: str, b: str) -> int:
    """Longest common prefix length via doubling probes and slice equality.

    Slice comparisons run at C speed, so the cost is O(log L) comparisons of
    O(L) characters rather than a Python-level loop per character.
    """
    if not a or not b or a[0] != b[0]:
        return 0
    bound = min(len(a), len(b))
    hi = 1
    while hi < bound and a[:hi] == b[:hi]:
        hi *= 2
    hi = min(hi, bound)
    if a[:hi] == b[:hi]:
        return hi
    lo = 1
    # invariant: prefixes of length lo are equal, prefixes of length hi differ
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid
    return lo


class SuffixRef(NamedTuple):
    """Suffix handle: sequence index in the family and 1-based starting run."""

    seq: int
    run: int


def suffix_refs(order: SuffixOrder | BruteOrder) -> list[SuffixRef]:
    """Each rank's suffix as a (sequence, run) handle; a terminator is the run after the last."""
    bounds = order.bounds
    seq = np.searchsorted(bounds, order.tokens, side="right") - 1
    run = order.tokens - bounds[seq] + 1
    return [SuffixRef(j, r) for j, r in zip(seq.tolist(), run.tolist())]


@lru_cache(maxsize=4)
def _run_rows(seq: RleSeq, side: int) -> list[list[int]]:
    """seq's [symbol, length] runs and its side's terminator, listed once; callers only read."""
    return [*seq.runs.tolist(), [side, 1]]


def suffix_runs(first: RleSeq, second: RleSeq, ref: SuffixRef) -> list[list[int]]:
    """The [symbol, length] runs of one suffix, its starting run through the terminator."""
    return _run_rows((first, second)[ref.seq], ref.seq)[ref.run - 1 :]


def _walk(first: RleSeq, second: RleSeq, a: SuffixRef, b: SuffixRef) -> tuple[int, int, int]:
    """Two suffixes' decoded lcp and the symbol each has right after it, by walking runs.

    The runs are compared in lockstep, so the cost is linear in runs rather
    than decoded characters. Runs are maximal, so the walk ends at the first
    pair of runs that differ: in symbol, or in length, where the longer
    run's symbol meets the symbol after the shorter run. A suffix that has
    run out has -1 after it, below both terminators, so it sorts first.
    """
    runs_a = suffix_runs(first, second, a)
    runs_b = suffix_runs(first, second, b)
    common = 0
    for k, ((sym_a, len_a), (sym_b, len_b)) in enumerate(zip(runs_a, runs_b)):
        if sym_a != sym_b:
            return common, sym_a, sym_b
        if len_a != len_b:
            after_a = sym_a if len_a > len_b else runs_a[k + 1][0]
            after_b = sym_b if len_b > len_a else runs_b[k + 1][0]
            return common + min(len_a, len_b), after_a, after_b
        common += len_a
    k = min(len(runs_a), len(runs_b))
    after_a, after_b = (runs[k][0] if k < len(runs) else -1 for runs in (runs_a, runs_b))
    return common, after_a, after_b


def suffix_compare(first: RleSeq, second: RleSeq, a: SuffixRef, b: SuffixRef) -> int:
    """Three-way decoded-order comparison of two suffixes, by walking runs."""
    _, after_a, after_b = _walk(first, second, a, b)
    return (after_a > after_b) - (after_a < after_b)


def suffix_lcp(first: RleSeq, second: RleSeq, a: SuffixRef, b: SuffixRef) -> int:
    """Decoded longest-common-prefix length of two suffixes, by walking runs."""
    return _walk(first, second, a, b)[0]


def run_walk_total(first: RleSeq, second: RleSeq) -> int:
    """Sum over first's positions of the longest match into second, run by run.

    Shares no code with the engine's tries, and its cost grows with runs,
    not decoded length. For run i of first (symbol s, length f), let m be
    the longest s-run of second and L_j = suffix_lcp(first after run i,
    second after run j) for each s-run j. The position with h copies of s
    left in run i matches h + max{L_j : len_j >= h} when h <= m, and m
    otherwise. The sum over h takes one closed form per step between
    distinct len_j, walked from the longest down.
    """
    y_runs = second.runs.tolist()
    total = 0
    for i, (s, f) in enumerate(first.runs.tolist(), 1):
        steps = sorted(
            (
                (length, suffix_lcp(first, second, SuffixRef(0, i + 1), SuffixRef(1, j + 1)))
                for j, (sym, length) in enumerate(y_runs, 1)
                if sym == s
            ),
            reverse=True,
        )
        if not steps:
            continue
        m = steps[0][0]
        total += max(f - m, 0) * m
        best = 0
        for k, (length, lcp) in enumerate(steps):
            best = max(best, lcp)
            below = steps[k + 1][0] if k + 1 < len(steps) else 0
            # h in (below, length] matches h + best
            lo, hi = below + 1, min(length, f)
            if below < length and lo <= hi:
                total += (hi - lo + 1) * best + (lo + hi) * (hi - lo + 1) // 2
    return total


def per_position_lengths(
    engine: AcsEngine, i: int, column: Column, cap: int = DEFAULT_POSITION_CAP
) -> list[int]:
    """Best match length at every decoded position of engine.seqs[i] against column's sequence.

    This drives the engine's own query trie without the per-run closed
    forms, one ancestor query per position, so it checks run_sums/total
    rather than replacing them. All positions go through one batched climb,
    the position with h trailing copies of its run's symbol s at threshold
    min(h, m_s). It costs O(x log N) for decoded length x; the cap keeps
    accidental huge expansions from running away, and keeps every value
    inside int64.
    """
    seq = engine.seqs[i]
    x = seq.content_length
    if x > cap:
        raise ValueError(f"decoded length over validation cap: {x} > {cap}")
    f = seq.runs[:, 1]
    # position p of a run that starts at position start has h = f - (p - start)
    starts = np.cumsum(f) - f
    h = np.repeat(f + starts, f) - np.arange(x)
    m = np.repeat(column.max_run[seq.runs[:, 0]], f)
    parents = np.repeat(engine.trie.run_parents[engine.record(i)], f)
    u = engine.trie.climb(parents, np.minimum(h, m), column.freq)
    return np.where(h > m, m, h + engine.trie.str_depth[u]).tolist()


@dataclass(frozen=True, eq=False)
class BruteOrder:
    """The brute sort's order, its int64 arrays named as SuffixOrder's so the two
    compare; bounds counts the suffixes it lists before each record's."""

    seqs: tuple[RleSeq, ...]
    tokens: np.ndarray
    bounds: np.ndarray
    dlcp: np.ndarray
    suffix_lengths: np.ndarray


def brute_suffix_sort(*seqs: RleSeq, budget: OracleBudget = DEFAULT_BUDGET) -> BruteOrder:
    """Sort all run-start suffixes of the decoded family by plain string order.

    Of k records, record j's terminator renders as chr(j), and the symbol
    of rank r among the family's ids as chr(k + r), above every
    terminator, so every id an RleSeq admits renders. The budget checks the
    two longest records.
    """
    budget.check(*sorted([0, *(seq.content_length for seq in seqs)])[-2:])
    ids = np.unique(np.concatenate([seq.runs[:, 0] for seq in seqs])).tolist()
    glyph = {sym: chr(len(seqs) + r) for r, sym in enumerate(ids)}
    entries: list[tuple[str, int]] = []
    bounds = [0]
    for j, seq in enumerate(seqs):
        text = "".join(glyph[sym] * n for sym, n in seq.runs.tolist()) + chr(j)
        pos = 0
        for length in [*seq.runs[:, 1].tolist(), 1]:
            entries.append((text[pos:], len(entries)))
            pos += length
        bounds.append(len(entries))
    entries.sort(key=lambda e: e[0])
    tokens = [token for _, token in entries]
    dlcp = [_lcp(entries[k - 1][0], entries[k][0]) for k in range(1, len(entries))]
    suffix_lengths = [len(text) for text, _ in entries]
    return BruteOrder(
        seqs=seqs,
        tokens=np.array(tokens, dtype=np.int64),
        bounds=np.array(bounds, dtype=np.int64),
        dlcp=np.array(dlcp, dtype=np.int64),
        suffix_lengths=np.array(suffix_lengths, dtype=np.int64),
    )
