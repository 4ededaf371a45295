"""Average common substring measure and distance over run-length encoded pairs.

The engine computes, for every position p of the first sequence, the longest
prefix of first[p:] occurring anywhere in the second sequence, without ever
decoding. Positions are processed one run at a time: the answers within a run
follow a closed form built from two ancestor lookups in the query trie.
Every run of a direction is answered in one batch, two vectorized lifting
climbs over all its runs, so a pair costs O(N log N) for N total runs. All
accumulation is exact integer arithmetic, in Python ints once values leave
the int64 trie columns; floats appear only in the final distance value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rleacs.rle import RleSeq
from rleacs.suffixes import build_suffix_order, longest_run_table
from rleacs.symbol_tries import extract_symbol_tries

LOG_FUNCTIONS = {"e": math.log, "2": math.log2, "10": math.log10}


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
    """One build per unordered pair: the query trie of its suffix order.

    total(), run_sums() and run_sum(i) score the first sequence's positions
    against the second, ACS(first, second). reverse is a view of the same
    build that scores the second against the first: engine.reverse.total()
    equals AcsEngine(second, first).total() without a second suffix order
    or a second trie. The two directions differ only in which side's leaves
    feed freq and weight (the trie carries both columns), the max_run table,
    and which runs are queried.

    Instances keep the caller's sequences, are immutable after construction
    (the trie is a frozen record of read-only arrays) and are safe to query
    from multiple threads. is_reverse tells the views apart; run_leaves()
    gives the leaf after each run of either view's first sequence. The
    suffix order itself is not kept.
    """

    def __init__(self, first: RleSeq, second: RleSeq) -> None:
        self.trie = extract_symbol_tries(build_suffix_order(first, second))
        self._orient(first, second, reverse=False)

    def _orient(self, first: RleSeq, second: RleSeq, reverse: bool) -> None:
        self.first = first
        self.second = second
        # first-sequence symbols are looked up in second's table
        size = 1 + int(max(first.runs[:, 0].max(), second.runs[:, 0].max()))
        self.max_run = longest_run_table(second, size)
        self.is_reverse = reverse

    def run_leaves(self) -> np.ndarray:
        """The trie leaf of the suffix after each run 1..run_count of the first sequence."""
        return self.trie.second_leaves if self.is_reverse else self.trie.first_leaves

    @property
    def reverse(self) -> AcsEngine:
        """This build seen from the other side: ACS(second, first)."""
        view = object.__new__(type(self))
        view.trie = self.trie
        view._orient(self.second, self.first, reverse=not self.is_reverse)
        return view

    def run_sum(self, i: int) -> int:
        """Sum of best match lengths over the positions of the i-th run.

        A batch of one run; see run_sums. i runs from 1 to run_count.
        """
        if not 1 <= i <= self.first.run_count:
            raise IndexError(f"run {i} outside 1..{self.first.run_count}")
        return self._sums(self.first.runs[i - 1 : i], self.run_leaves()[i - 1 : i])[0]

    def run_sums(self) -> list[int]:
        """Sum of best match lengths over the positions of each run 1..run_count.

        For a run of symbol s and length f whose positions have h = f..1
        trailing copies of s, the best match at offset h is capped by m, the
        longest s-run in the second sequence: m when h > m, otherwise h plus
        the continuation depth of the deepest ancestor (of the following
        suffix's leaf, in the trie's s-block) still supported by a
        second-sequence run of at least h. Summing the ancestor depths over h
        telescopes into two weight lookups, at the deepest ancestors with
        support 1 and min(f, m).
        """
        return self._sums(self.first.runs, self.run_leaves()).tolist()

    def _sums(self, runs: np.ndarray, leaves: np.ndarray) -> np.ndarray:
        """Exact run sums, as an object array, for the (symbol, length) rows of runs.

        leaves holds the leaf after each run. With g = min(f, m) and v, u the
        deepest ancestors with support 1 and g, every run sums to
        weight[v] - weight[u] + g * (2 * (depth[u] + f - g) + g + 1) // 2.
        For f <= m that is the telescoped sum itself. For f > m every node on
        u's root path below the root has freq m (the s-block holds no longer
        support), so weight[u] = m * depth[u] and the form reduces to
        weight[v] + m * f - m * (m - 1) // 2. For m == 0 every node of the
        s-block, and the root, has weight 0. Both climbs run in int64, and so
        does depth[u] + f - g, which stays below 2^63; the rest is object
        arithmetic in exact Python ints, since the products reach 2^124.
        """
        trie = self.trie
        rev = self.is_reverse
        lengths = runs[:, 1]
        g = np.minimum(lengths, self.max_run[runs[:, 0]])
        # the root's support is at least 1, so neither climb returns -1
        v = trie.deepest_freq_ancestor(leaves, 1, rev)
        u = trie.deepest_freq_ancestor(leaves, g, rev)
        weight = trie.rev_weight if rev else trie.weight
        rest = (trie.str_depth[u] + lengths - g).astype(object)
        g = g.astype(object)
        return weight[v] - weight[u] + g * (2 * rest + g + 1) // 2

    def total(self) -> int:
        """Sum of best match lengths over every position of the first sequence."""
        return sum(self.run_sums())


def _average(engine: AcsEngine) -> AcsResult:
    lsum = engine.total()
    x = engine.first.content_length
    return AcsResult(lsum=lsum, x=x, value=Fraction(lsum, x))


def acs(first: RleSeq, second: RleSeq) -> AcsResult:
    """Average over first's positions of the longest match into second."""
    return _average(AcsEngine(first, second))


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

    Each direction is normalized as log(other length) / average, and the two
    self-match baselines are subtracted; swapping the arguments permutes the
    two addends of each bracket, so the result is bit-identical under swap.
    """
    log = LOG_FUNCTIONS[log_base]
    cross = log(y_len) / acs_xy + log(x_len) / acs_yx
    base = log(x_len) / acs_self(x_len) + log(y_len) / acs_self(y_len)
    return 0.5 * cross - 0.5 * base


def dist(first: RleSeq, second: RleSeq, log_base: str = "e") -> DistResult:
    """Symmetric distance between two sequences, from one engine build.

    Both cross averages, ACS(X,Y) and ACS(Y,X), come from the same query
    trie (AcsEngine and its reverse view). Degenerate inputs are rejected:
    decoded lengths below 2 make the normalization meaningless, and a pair
    with no common symbol has average match 0, which has no finite distance.
    """
    if log_base not in LOG_FUNCTIONS:
        raise ValueError(f"unknown log base {log_base!r}")
    x = first.content_length
    y = second.content_length
    if x < 2 or y < 2:
        raise ValueError("sequence too short")
    engine = AcsEngine(first, second)
    forward = _average(engine)
    backward = _average(engine.reverse)
    if forward.lsum == 0 or backward.lsum == 0:
        raise ValueError("no common substring")
    return DistResult(
        value=dist_value(x, y, forward.value, backward.value, log_base),
        log_base=log_base,
        acs_xy=forward.value,
        acs_yx=backward.value,
        acs_xx=acs_self(x),
        acs_yy=acs_self(y),
    )
