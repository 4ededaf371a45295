"""Average common substring measure and distance over run-length encoded sequences.

For every position p of a sequence X the engine finds the longest prefix
of X[p:] occurring anywhere in a sequence Y, without decoding, from one
query trie over a family that holds both (the pair for acs and dist, every
record for dist_matrix) and Y's column of it. A run's positions are
answered together, by a closed form over two ancestors of the run's entry
of the trie's run_parents: one gather from the column's supported table,
and, for the few runs where that falls short, a vectorized lifting climb.
A column answers every run of the family in one batch, O(N log N) for N
runs. All accumulation is exact integer arithmetic, in int64 while the
family's runs prove it exact (see SymbolTrie.int64) and in two int64 limbs
past that; floats appear only in the final distance value.
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
# each length's log is an integer, the log scaled by 2^LOG_BITS (2^(2 *
# LOG_BITS) when the rounding test fails; see dist_value)
LOG_BITS = 200


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
    order; a pair is the family of k = 2. Of the order it keeps the token
    layout, which the trie's run_parents and bounds index too and every
    query slices. column(j) annotates seqs[j]'s column,
    which holds all that a query against seqs[j] reads. total(i, column)
    and run_sums(i, column) score seqs[i] against the column's sequence,
    and totals(j, column) scores every other sequence against seqs[j] in
    one batch. A column answers every sequence but its own: a run's
    self-match needs its own leaf, which no climb visits. Instances keep
    the caller's sequences, are immutable after construction (the trie and
    every column are frozen records of read-only arrays) and are safe to
    query from multiple threads. _exact builds on the limb path whatever
    the family's runs, so the two paths can be compared.
    """

    def __init__(self, *seqs: RleSeq, _exact: bool = False) -> None:
        if not seqs:
            raise ValueError("AcsEngine needs at least one sequence")
        self.seqs = seqs
        order = build_suffix_order(*seqs)
        self._symbols, self._lengths = order.syms, order.run_lengths
        blocks = leaf_blocks(order)
        del order  # the order, rounds and all, is freed before the trie is built
        self.trie = extract_symbol_tries(blocks, _exact=_exact)

    def column(self, j: int) -> Column:
        """The column of seqs[j], annotated afresh on each call."""
        return annotate(self.trie, self.trie.run_parents[self.record(j)], self.seqs[j].runs)

    def _sums(self, column: Column, part: slice = slice(None)) -> np.ndarray:
        """_closed_form of the runs in part of the family's run arrays."""
        parents = self.trie.run_parents[part]
        return _closed_form(self.trie, column, self._symbols[part], self._lengths[part], parents)

    def record(self, i: int) -> slice:
        """seqs[i]'s tokens but its terminator, its runs' entries of every layout array."""
        i = range(len(self.seqs))[i]
        bounds = self.trie.bounds
        return slice(bounds[i], bounds[i + 1] - 1)

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
        return exact_ints(self._sums(column, self.record(i)))

    def total(self, i: int, column: Column) -> int:
        """Sum of best match lengths over every position of seqs[i]."""
        return exact_total(self._sums(column, self.record(i)))

    def totals(self, j: int, column: Column) -> list[int]:
        """total(i, column) for every i, from seqs[j]'s column, and 0 at j.

        Every token of the family is answered in one batch, one _closed_form
        call, and summed per sequence in one pass (exact_totals); a
        terminator sums to 0 (see _closed_form). seqs[j]'s
        own runs are answered too, and their total dropped: the column's
        longest run of each symbol is at least the run's own length, so g =
        f, and the root qualifies, as for any run.
        """
        totals = exact_totals(self._sums(column), self.trie.bounds[:-1])
        totals[j] = 0
        return totals


def _closed_form(
    trie: SymbolTrie,
    column: Column,
    symbols: np.ndarray,
    lengths: np.ndarray,
    parents: np.ndarray,
) -> np.ndarray:
    """Exact run sums, in the column's weight layout, for runs of these symbols and lengths.

    parents holds the parent of the leaf after each run. With m the
    column's longest run of the run's symbol, g = min(f, m) and v, u the
    deepest ancestors with support 1 and g, every run sums to
    weight[v] - weight[u] + g * (depth[u] + f - g) + g * (g + 1) / 2.
    For f <= m that is the telescoped sum itself. For f > m every node on
    u's root path below the root has freq m (the s-block holds no longer
    support), so weight[u] = m * depth[u] and the form reduces to
    weight[v] + m * f - m * (m - 1) / 2. For m == 0 every node of the
    s-block, and the root, has weight 0, and so does the g = 0 product.
    That holds for a terminator token too: its id, 1 down to 2 - k, clips
    to id 0, which no sequence holds, and its run_parents entry is the root.

    v is the column's supported entry at the leaf's parent, one gather. u
    is v wherever freq[v] >= g, and only the other runs climb for it, from
    v (SymbolTrie.climb): u is an ancestor-or-self of v, since g >= 1
    there. The root's support is the column's longest run, at least 1 and
    at least g, so the climb never returns -1.

    With h = g // 2, g * (depth[u] + f - g) + g * (g + 1) / 2 equals
    g * (depth[u] + f - h), plus h where g is even: for g = 2h,
    g * (g + 1) / 2 = g * h + h, and for g = 2h + 1 it is g * (h + 1). So
    each run takes one product, and its factor depth[u] + f - h is at
    most f + d <= D <= 2^62 (see SymbolTrie). Within the trie's int64 bound it is
    formed in int64, the product at most M * D. Past it the sums are limbs,
    a (2, len(symbols)) array, from one limb_product and two limb_carry
    calls, every intermediate below 2^63: lo[v] - lo[u] + h lies in (-2^62,
    2^62 + 2^61), with h <= 2^61, and hi[v] - hi[u] in (-2^62, 2^62); after
    the first carry lo is in [0, 2^62) and hi at most 2^62, so adding the
    product's lo, in [0, 2^62), and its hi, below 2^62 as the product is
    below 2^124, keeps both below 2^63; the second carry leaves the run sum,
    below 2^124, with hi below 2^62. Limb weights are gathered one row at a
    time (ndarray.take), several times faster than a 2-D fancy index. Each
    array is dropped after its last read, and the sums are formed in place,
    so few run-sized arrays are alive at once.
    """
    g = np.minimum(lengths, column.max_run.take(symbols, mode="clip"))
    v = column.supported[parents]
    short = np.flatnonzero(column.freq[v] < g)
    u = v.copy()
    u[short] = trie.climb(v[short], g[short], column.freq)
    del short
    factor = trie.str_depth[u]
    factor += lengths
    half = g >> 1
    factor -= half
    if trie.int64:
        factor *= g
        # g becomes (g & 1) - 1, all ones where g is even, so half keeps h there
        g &= 1
        g -= 1
        half &= g
        factor += half
        del g, half
        factor += column.weight[v]
        factor -= column.weight[u]
        return factor
    # as above, but g is still to be multiplied
    even = g & 1
    even -= 1
    half &= even
    del even
    w_hi, w_lo = column.weight
    lo = w_lo.take(v)
    lo -= w_lo.take(u)
    lo += half
    hi = w_hi.take(v)
    hi -= w_hi.take(u)
    del v, u, half
    hi, lo = limb_carry(hi, lo)
    p_hi, p_lo = limb_product(g, factor)
    del g, factor
    hi += p_hi
    lo += p_lo
    return np.stack(limb_carry(hi, lo))


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

    The distance is 1/2 * [log(y) * (1/acs_xy - 1/acs_yy) + log(x) *
    (1/acs_yx - 1/acs_xx)], with acs_xx = (x + 1)/2 and acs_yy = (y + 1)/2,
    and the result is that real number correctly rounded to a float.

    Each reciprocal difference (gap) is an exact integer ratio: with acs_xy
    = p/q, 1/acs_xy - 2/(y + 1) = (q(y + 1) - 2p) / (p(y + 1)), so similar
    sequences lose nothing to cancellation. Each log is an integer,
    floor(log(n) * 2^P) with P = LOG_BITS, taken once per (base, length)
    (_fixed_log), and the true scaled log lies within [-1, +2] of it. The
    bracket's two ends over those intervals are each one Python int over
    one denominator, and int / int rounds correctly; when both ends round
    to the same float, the true value rounds to it too (Ziv's rounding
    test), and that float is the result. When they differ, the same bracket
    is taken once more with 2P-bit logs, and a float both its ends round to
    is the result. Only one retry is made: if its ends still differ, the
    result is the bracket's midpoint rounded once, within 2^-2P of the
    summed absolute gaps of the true value, plus half an ulp. The first
    test fails only for two addends that cancel to about 2^-145 of their
    size or a value within about 2^-196 of itself of a float midpoint, and
    the retry only at about 2^-345 and 2^-396.

    When x == y the two gaps are added before the log multiplies them, so
    equal averages (both gaps 0) and x == y with cancelling gaps give
    exactly 0.0. With x != y the addends cancel exactly only when x and y
    are powers of one integer (_logs_cancel), and that 0.0 is exact too.
    Swapping the arguments swaps two addends of an exact integer sum, so
    the result is bit-identical under swap.
    """
    return _distance_value(
        x_len,
        y_len,
        acs_xy.numerator,
        acs_xy.denominator,
        acs_yx.numerator,
        acs_yx.denominator,
        log_base,
    )


def _distance_value(
    x: int, y: int, p_xy: int, q_xy: int, p_yx: int, q_yx: int, log_base: str
) -> float:
    """dist_value of acs_xy = p_xy / q_xy and acs_yx = p_yx / q_yx, in integers."""
    n_y, d_y = q_xy * (y + 1) - 2 * p_xy, p_xy * (y + 1)
    n_x, d_x = q_yx * (x + 1) - 2 * p_yx, p_yx * (x + 1)
    # the bracket is (log(y) * a + log(x) * b) / (2 * d_y * d_x)
    a, b = n_y * d_x, n_x * d_y
    terms = ((x, a + b),) if x == y else ((y, a), (x, b))
    low, high = _bracket(terms, log_base, LOG_BITS)
    scale = (d_y * d_x) << (LOG_BITS + 1)
    value = low / scale
    if value == high / scale:
        return value
    if x != y and _logs_cancel(x, y, a, b):
        return 0.0
    low, high = _bracket(terms, log_base, 2 * LOG_BITS)
    scale <<= LOG_BITS
    value = low / scale
    return value if value == high / scale else (low + high) / (scale << 1)


def _bracket(terms: tuple[tuple[int, int], ...], log_base: str, bits: int) -> tuple[int, int]:
    """Integer ends of the sum of log(length) * n over terms, the logs
    scaled by 2^bits, from each floor's interval [floor - 1, floor + 2]."""
    low = high = 0
    for length, n in terms:
        log = _fixed_log(log_base, length, bits)
        if n > 0:
            low += (log - 1) * n
            high += (log + 2) * n
        else:
            low += (log + 2) * n
            high += (log - 1) * n
    return low, high


def _logs_cancel(x: int, y: int, a: int, b: int) -> bool:
    """Whether log(y) * a + log(x) * b is exactly 0, for lengths x, y >= 2.

    That needs log(y) / log(x) = -b / a = p / q > 0 in lowest terms, so y^q
    = x^p, and then x = c^q and y = c^p for an integer c >= 2: q and p are
    below the bit lengths of x and y, and the powers are small exact ints.
    """
    if a == 0 or b == 0:
        return False
    ratio = Fraction(-b, a)
    p, q = ratio.numerator, ratio.denominator
    return 0 < p < y.bit_length() and q < x.bit_length() and y**q == x**p


def _check_log_base(log_base: str) -> None:
    if log_base not in LOG_FUNCTIONS:
        raise ValueError(f"unknown log base {log_base!r}")


@lru_cache(maxsize=1 << 12)
def _fixed_log(log_base: str, length: int, bits: int) -> int:
    """floor(log(length) * 2^bits), once per (base, length, bits): a matrix
    of k records takes k of them, not k(k - 1).

    A length is at most 2^62, so the scaled log is below 2^(bits + 6), with
    at most 0.302 * (bits + 6) + 1 digits before the point. A Decimal of
    0.3 * bits + 30 digits (90 at bits = 200) leaves it an error below
    10^-25 of a unit: the true scaled log lies in [floor - 1, floor + 2]
    with room to spare.
    """
    with localcontext() as ctx:
        ctx.prec = 3 * bits // 10 + 30
        return int(LOG_FUNCTIONS[log_base](Decimal(length)) * (1 << bits))


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
    lsum_yx = engine.total(1, engine.column(0))
    x = first.content_length
    y = second.content_length
    _refuse_degenerate(x, y, lsum_xy, lsum_yx)
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


def _refuse_degenerate(x: int, y: int, lsum_xy: int, lsum_yx: int) -> None:
    if x < 2 or y < 2:
        raise ValueError("sequence too short")
    if lsum_xy == 0 or lsum_yx == 0:
        raise ValueError("no common substring")


def pair_distance(x: int, y: int, lsum_xy: int, lsum_yx: int, log_base: str) -> float:
    """dist's value for decoded lengths x, y and cross totals lsum_xy, lsum_yx,
    with its refusals, and no Fraction: ACS(X,Y) is lsum_xy / x as it stands."""
    _refuse_degenerate(x, y, lsum_xy, lsum_yx)
    return _distance_value(x, y, lsum_xy, x, lsum_yx, y, log_base)


def dist_matrix(seqs: list[RleSeq], log_base: str = "e", threads: int = 1) -> list[list[float]]:
    """All pairwise distances from one query trie over the whole family.

    Each sequence's column is annotated once, answers every other sequence
    in one batch (AcsEngine.totals), and is dropped. The calling thread and
    threads - 1 workers (no more than there are columns) each take every
    threads-th column from its own first one, so at most threads columns are
    alive at once, and threads = 1 starts no thread. A failing pair raises
    ValueError naming it; with several, the first in row order, whatever
    the thread count. An unknown log base is refused before the build.
    """
    _check_log_base(log_base)
    engine = AcsEngine(*seqs)
    totals: list[list[int]] = [[] for _ in seqs]
    stride = min(threads, len(seqs))

    def work(first: int) -> None:
        for j in range(first, len(seqs), stride):
            totals[j] = engine.totals(j, engine.column(j))

    if stride > 1:
        with ThreadPoolExecutor(max_workers=stride - 1) as pool:
            futures = [pool.submit(work, w) for w in range(1, stride)]
            work(0)
            for future in futures:
                future.result()
    else:
        work(0)
    lengths = [seq.content_length for seq in seqs]
    grid = [[0.0] * len(seqs) for _ in seqs]
    for i, j in combinations(range(len(seqs)), 2):
        try:
            value = pair_distance(lengths[i], lengths[j], totals[j][i], totals[i][j], log_base)
        except ValueError as exc:
            raise ValueError(f"pair {seqs[i].name}/{seqs[j].name}: {exc}") from exc
        grid[i][j] = grid[j][i] = value
    return grid
