"""Average common substring measure and distance over run-length encoded sequences.

The engine computes, for every position p of a sequence X, the longest
prefix of X[p:] occurring anywhere in a sequence Y, without ever decoding,
from one query trie over a family that holds both (the pair for acs and
dist, every record for dist_matrix) and Y's column of it. Positions are
processed one run at a time: the answers within a run follow a closed form
built from two ancestor lookups. Every run of X is answered in one batch,
two vectorized lifting climbs, and dist_matrix answers every other record
against a column in one such batch, so a family of N total runs costs
O(N log N) per column. All accumulation is exact integer arithmetic: in
int64 while the family's longest run and longest record prove it exact (see
SymbolTrie.int64), in two int64 limbs past that bound, composed into Python
ints only for the sums handed out; floats appear only in the final distance
value.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from rleacs.rle import RleSeq
from rleacs.suffixes import build_suffix_order
from rleacs.symbol_tries import (
    Column,
    SymbolTrie,
    annotate,
    exact_ints,
    exact_total,
    exact_totals,
    extract_symbol_tries,
    leaf_blocks,
    limb_carry,
    limb_product,
)

# natural, binary and common logs in the current decimal context
LOG_FUNCTIONS = {"e": Decimal.ln, "2": lambda v: v.ln() / Decimal(2).ln(), "10": Decimal.log10}
DIST_DIGITS = 40


@dataclass(frozen=True)
class AcsResult:
    """Sum and average of per-position best match lengths."""

    lsum: int
    x: int
    value: Fraction

    @property
    def as_float(self) -> float:
        return self.lsum / self.x


@dataclass(frozen=True)
class DistResult:
    """Symmetric distance with the four average-match values behind it."""

    value: float
    log_base: str
    acs_xy: Fraction
    acs_yx: Fraction
    acs_xx: Fraction
    acs_yy: Fraction


class AcsEngine:
    """Every ACS between the sequences of a family, from one query trie over them.

    AcsEngine(*seqs) builds the family's trie once and keeps no suffix
    order; a pair is the family of k = 2. column(j) annotates seqs[j]'s
    column, which holds all that a query against seqs[j] reads. total(i,
    column) and run_sums(i, column) score seqs[i] against the column's
    sequence, and totals(j, column) scores every other sequence against
    seqs[j] in one batch. A column answers every sequence but its own: a
    run's self-match needs its own leaf, which no climb visits. Instances
    keep the caller's sequences, are immutable after construction (the trie
    and every column are frozen records of read-only arrays) and are safe
    to query from multiple threads. _exact builds on the limb path whatever
    the family's runs, so the two paths can be compared.
    """

    def __init__(self, *seqs: RleSeq, _exact: bool = False) -> None:
        if not seqs:
            raise ValueError("AcsEngine needs at least one sequence")
        self.seqs = seqs
        # the order, rounds and all, is freed once leaf_blocks has read it
        self.trie = extract_symbol_tries(leaf_blocks(build_suffix_order(*seqs)), _exact=_exact)

    def column(self, j: int) -> Column:
        """The column of seqs[j], annotated afresh on each call."""
        return annotate(self.trie, self.trie.leaves[j], self.seqs[j].runs)

    def run_sums(self, i: int, column: Column) -> list[int]:
        """Sum of best match lengths over the positions of each run of seqs[i].

        For a run of symbol s and length f whose positions have h = f..1
        trailing copies of s, the best match at offset h is capped by m, the
        column's longest s-run: m when h > m, otherwise h plus the
        continuation depth of the deepest ancestor (of the following
        suffix's leaf, in the trie's s-block) still supported by a run of
        the column's sequence of at least h. Summing the ancestor depths
        over h telescopes into two weight lookups, at the deepest ancestors
        with support 1 and min(f, m).
        """
        return exact_ints(_closed_form(self.trie, column, self.seqs[i].runs, self.trie.leaves[i]))

    def total(self, i: int, column: Column) -> int:
        """Sum of best match lengths over every position of seqs[i]."""
        return exact_total(_closed_form(self.trie, column, self.seqs[i].runs, self.trie.leaves[i]))

    def totals(self, j: int, column: Column) -> list[int]:
        """total(i, column) for every i, from seqs[j]'s column, and 0 at j.

        The runs of all the other sequences are answered in one batch, one
        _closed_form call, and summed per sequence in one pass (exact_totals).
        """
        others = [i for i in range(len(self.seqs)) if i != j]
        totals = [0] * len(self.seqs)
        if not others:
            return totals
        runs = np.concatenate([self.seqs[i].runs for i in others])
        leaves = np.concatenate([self.trie.leaves[i] for i in others])
        sums = _closed_form(self.trie, column, runs, leaves)
        starts = np.cumsum([0] + [self.seqs[i].run_count for i in others[:-1]])
        for i, total in zip(others, exact_totals(sums, starts)):
            totals[i] = total
        return totals


def _closed_form(trie: SymbolTrie, column: Column, runs: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Exact run sums, in the column's weight layout, for the (symbol, length) rows of runs.

    leaves holds the leaf after each run. With m the column's longest run
    of the run's symbol, g = min(f, m) and v, u the deepest ancestors with
    support 1 and g, every run sums to
    weight[v] - weight[u] + g * (2 * (depth[u] + f - g) + g + 1) // 2.
    For f <= m that is the telescoped sum itself. For f > m every node on
    u's root path below the root has freq m (the s-block holds no longer
    support), so weight[u] = m * depth[u] and the form reduces to
    weight[v] + m * f - m * (m - 1) // 2. For m == 0 every node of the
    s-block, and the root, has weight 0. Both climbs run in int64, and so
    does rest = depth[u] + f - g, at most f + d <= D <= 2^62 (see
    SymbolTrie). Within the trie's int64 bound the rest is int64 too, every
    product below 2^62. Past it the sums are limbs, a (2, len(runs)) array:
    the same value as weight[v] - weight[u] + g * rest + g * (g + 1) / 2,
    with g * (g + 1) / 2 the product of its two halves (whichever of g and
    g + 1 is even, halved, times the other) and a limb_carry after each
    addition.
    """
    lengths = runs[:, 1]
    g = np.minimum(lengths, column.max_run[runs[:, 0]])
    # the root's support is the column's longest run, at least 1 and at
    # least g, so neither climb returns -1
    v = trie.deepest_freq_ancestor(leaves, 1, column.freq)
    u = trie.deepest_freq_ancestor(leaves, g, column.freq)
    rest = trie.str_depth[u] + lengths - g
    if trie.int64:
        return column.weight[v] - column.weight[u] + g * (2 * rest + g + 1) // 2
    (v_hi, v_lo), (u_hi, u_lo) = column.weight[:, v], column.weight[:, u]
    hi, lo = limb_carry(v_hi - u_hi, v_lo - u_lo)
    odd = g & 1
    for a, b in ((g, rest), (g >> (1 - odd), (g + 1) >> odd)):
        p_hi, p_lo = limb_product(a, b)
        hi, lo = limb_carry(hi + p_hi, lo + p_lo)
    return np.stack((hi, lo))


def acs(first: RleSeq, second: RleSeq) -> AcsResult:
    """Average over first's positions of the longest match into second."""
    engine = AcsEngine(first, second)
    lsum = engine.total(0, engine.column(1))
    x = first.content_length
    return AcsResult(lsum=lsum, x=x, value=Fraction(lsum, x))


def acs_self(length: int) -> Fraction:
    """Average self-match value for a sequence of the given decoded length.

    Position p matches the suffix starting at p itself, of length x - p + 1;
    the average of x, x-1, ..., 1 is (x + 1) / 2.
    """
    if length < 1:
        raise ValueError("sequence too short")
    return Fraction(length + 1, 2)


def dist_value(
    x_len: int,
    y_len: int,
    acs_xy: Fraction,
    acs_yx: Fraction,
    log_base: str = "e",
) -> float:
    """Distance from the two cross average-match values and the two lengths.

    Evaluated as 1/2 * [log(y) * (1/acs_xy - 1/acs_yy) + log(x) * (1/acs_yx -
    1/acs_xx)], with acs_xx = (x + 1)/2 and acs_yy = (y + 1)/2. Each
    reciprocal difference is an exact Fraction, so similar sequences lose
    nothing to cancellation, and equal averages give exactly 0. Float logs
    would still be off by an ulp, so the bracket is taken to DIST_DIGITS
    decimal digits and rounded to a float once. Swapping the arguments swaps
    the two addends of an exactly rounded sum, so the result is
    bit-identical under swap.
    """
    gap_y = 1 / acs_xy - 1 / acs_self(y_len)
    gap_x = 1 / acs_yx - 1 / acs_self(x_len)
    with localcontext() as ctx:
        ctx.prec = DIST_DIGITS
        term_y = _log(log_base, y_len) * gap_y.numerator / gap_y.denominator
        term_x = _log(log_base, x_len) * gap_x.numerator / gap_x.denominator
        return float((term_y + term_x) / 2)


def _check_log_base(log_base: str) -> None:
    if log_base not in LOG_FUNCTIONS:
        raise ValueError(f"unknown log base {log_base!r}")


@lru_cache(maxsize=1 << 12)
def _log(log_base: str, length: int) -> Decimal:
    """The log of a sequence length at DIST_DIGITS digits, once per (base, length):
    a matrix of k records takes k of them, not k(k - 1)."""
    with localcontext() as ctx:
        ctx.prec = DIST_DIGITS
        return LOG_FUNCTIONS[log_base](Decimal(length))


def dist(first: RleSeq, second: RleSeq, log_base: str = "e") -> DistResult:
    """Symmetric distance between two sequences, from one engine build.

    Both cross averages, ACS(X,Y) and ACS(Y,X), come from the pair's one
    query trie, one column each. Degenerate inputs are rejected:
    decoded lengths below 2 make the normalization meaningless, and a pair
    with no common symbol has average match 0, which has no finite distance.
    """
    _check_log_base(log_base)
    engine = AcsEngine(first, second)
    lsum_xy = engine.total(0, engine.column(1))
    return _distance(first, second, lsum_xy, engine.total(1, engine.column(0)), log_base)


def _distance(first: RleSeq, second: RleSeq, lsum_xy: int, lsum_yx: int, log_base: str) -> DistResult:
    x = first.content_length
    y = second.content_length
    if x < 2 or y < 2:
        raise ValueError("sequence too short")
    if lsum_xy == 0 or lsum_yx == 0:
        raise ValueError("no common substring")
    acs_xy = Fraction(lsum_xy, x)
    acs_yx = Fraction(lsum_yx, y)
    return DistResult(
        value=dist_value(x, y, acs_xy, acs_yx, log_base),
        log_base=log_base,
        acs_xy=acs_xy,
        acs_yx=acs_yx,
        acs_xx=acs_self(x),
        acs_yy=acs_self(y),
    )


def dist_matrix(seqs: list[RleSeq], log_base: str = "e", threads: int = 1) -> list[list[float]]:
    """All pairwise distances from one query trie over the whole family.

    Each sequence's column is annotated once, answers every other sequence
    in one batch (AcsEngine.totals), and is dropped; threads workers take
    the columns, so at most that many are alive at once. A failing pair
    raises ValueError naming it; with several, the first in row order,
    whatever the thread count. An unknown log base is refused before the build.
    """
    _check_log_base(log_base)
    engine = AcsEngine(*seqs)

    def against(j: int) -> list[int]:
        return engine.totals(j, engine.column(j))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        totals = list(pool.map(against, range(len(seqs))))
    grid = [[0.0] * len(seqs) for _ in seqs]
    for i, j in combinations(range(len(seqs)), 2):
        try:
            value = _distance(seqs[i], seqs[j], totals[j][i], totals[i][j], log_base).value
        except ValueError as exc:
            raise ValueError(f"pair {seqs[i].name}/{seqs[j].name}: {exc}") from exc
        grid[i][j] = grid[j][i] = value
    return grid
