"""Average common substring measure and distance over run-length encoded pairs.

The engine computes, for every position p of the first sequence, the longest
prefix of first[p:] occurring anywhere in the second sequence, without ever
decoding. Positions are processed one run at a time: the answers within a run
follow a closed form built from two ancestor lookups in the query trie, so
a pair costs O(N log N) for N total runs. All accumulation is exact integer
arithmetic; floats appear only in the final distance value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from rleacs.rle import RleSeq, ensure_pair
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

    total() and run_sum(i) score the first sequence's positions against the
    second, ACS(first, second). reverse is a view of the same build that
    scores the second against the first: engine.reverse.total() equals
    AcsEngine(second, first).total() without a second suffix order or a
    second trie. The two directions differ only in which side's leaves feed
    freq and weight (the trie carries both columns), the max_run table, and
    which runs are queried.

    Instances are immutable after construction and safe to query from
    multiple threads. token_leaf[t] is the trie leaf of the suffix that
    starts at token t; the suffix after run i of the built pair's first
    sequence starts at token i, the one after run j of its second at token
    len(first.runs) + j. is_reverse tells the views apart; leaf_after(i)
    finds the leaf after run i of either view's first sequence. The suffix
    order itself is not kept.
    """

    def __init__(self, first: RleSeq, second: RleSeq) -> None:
        first, second = ensure_pair(first, second)
        self.token_leaf = [-1] * (len(first.runs) + len(second.runs))
        self.trie = extract_symbol_tries(build_suffix_order(first, second), self.token_leaf)
        self._orient(first, second, reverse=False)

    def _orient(self, first: RleSeq, second: RleSeq, reverse: bool) -> None:
        self.first = first
        self.second = second
        # first-sequence symbols are looked up in second's table
        size = 1 + int(max(first.runs[:, 0].max(), second.runs[:, 0].max()))
        self.max_run = longest_run_table(second, size)
        self.is_reverse = reverse
        # token of the suffix after run i of first is _token_base + i
        self._token_base = len(second.runs) if reverse else 0

    def leaf_after(self, i: int) -> int:
        """The trie leaf of the suffix that follows run i of the first sequence."""
        return self.token_leaf[self._token_base + i]

    @property
    def reverse(self) -> AcsEngine:
        """This build seen from the other side: ACS(second, first)."""
        view = object.__new__(type(self))
        view.token_leaf = self.token_leaf
        view.trie = self.trie
        view._orient(self.second, self.first, reverse=not self.is_reverse)
        return view

    def run_sum(self, i: int) -> int:
        """Sum of best match lengths over the positions of the i-th run.

        For a run of symbol s and length f whose positions have h = f..1
        trailing copies of s, the best match at offset h is capped by m, the
        longest s-run in the second sequence: m when h > m, otherwise h plus
        the continuation depth of the deepest ancestor (of the following
        suffix's leaf, in the trie's s-block) still supported by a
        second-sequence run of at least h. Summing the ancestor depths over h
        telescopes into two weight lookups. i runs from 1 to run_count.
        """
        if not 1 <= i <= self.first.run_count:
            raise IndexError(f"run {i} outside 1..{self.first.run_count}")
        sym, f = self.first.runs[i - 1].tolist()
        return self._run_sum(i, f, int(self.max_run[sym]))

    def _run_sum(self, i: int, f: int, m: int) -> int:
        """run_sum(i) given run i's length f and m, its symbol's longest run in second."""
        if m == 0:
            return 0
        trie = self.trie
        w = self.leaf_after(i)
        rev = self.is_reverse
        weight = trie.rev_weight if rev else trie.weight
        v = trie.deepest_freq_ancestor(w, 1, rev)
        if f > m:
            return weight[v] + m * f - m * (m - 1) // 2
        u = trie.deepest_freq_ancestor(w, f, rev)
        return weight[v] - weight[u] + f * trie.str_depth[u] + f * (f + 1) // 2

    def total(self) -> int:
        """Sum of best match lengths over every position of the first sequence."""
        max_run = self.max_run.tolist()
        return sum(
            self._run_sum(i, f, max_run[sym])
            for i, (sym, f) in enumerate(self.first.runs[:-1].tolist(), 1)
        )


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
