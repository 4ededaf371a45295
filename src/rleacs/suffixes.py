"""Suffix ordering of a family of run-length encoded sequences, and the compact trie over it.

Only suffixes that begin at run boundaries take part. token_string lays the
k sequences out as one token string, each followed by its own terminator:
sequence j's runs, then the terminator run (j + 2 - k, 1), so a pair (k = 2)
ends in ids 0 and 1. A terminator counts as the run after its sequence's
last. A SuffixOrder maps each rank to the token its suffix starts at. All
depths and lcp values here are decoded lengths, never run counts. The token
key columns come straight from the int64 run arrays, and every key and rank
fits in int64. Decoded lcps and suffix lengths stay within one sequence (at
most 2^62), so they come from one int64 prefix sum per sequence; a prefix
sum over two sequences could already reach 2^63.

The engine reads only the suffix order: its query trie is built from it
directly, with range-minimum queries over the lcps, and the order is dropped
once that trie exists. The compact trie over all suffixes (build_trie) exists
for the structural checks of the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rleacs.rle import RleSeq


@dataclass(frozen=True, eq=False)
class SuffixOrder:
    """All run-start suffixes of a family of sequences, sorted by decoded string order.

    The three array fields are int64. tokens[k] is the token index of the
    suffix at rank k; dlcp[k] is the decoded longest-common-prefix length of
    the suffixes at ranks k and k+1; suffix_lengths[k] is the decoded length
    (terminator included) of the suffix at rank k.
    """

    seqs: tuple[RleSeq, ...]
    tokens: np.ndarray
    dlcp: np.ndarray
    suffix_lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Trie:
    """Compact trie over all run-start suffixes, leaves in suffix order."""

    parent: list[int]
    str_depth: list[int]
    leaves: list[int]


def token_string(*seqs: RleSeq) -> np.ndarray:
    """The k sequences as one int64 array of (symbol, length) tokens.

    Sequence j's runs, then its terminator run (j + 2 - k, 1), for j = 0..k-1.
    The terminator ids are unique in the string and below every symbol id.
    """
    k = len(seqs)
    return np.concatenate([np.vstack((seq.runs, (j + 2 - k, 1))) for j, seq in enumerate(seqs)])


def token_bounds(seqs) -> np.ndarray:
    """The token index where each sequence starts, then one past the last: k + 1 indices."""
    return np.cumsum([0] + [len(seq.runs) + 1 for seq in seqs])


def _token_columns(seqs):
    """The family's token string as per-token sort-key columns.

    A token's key (sym, group, signed, next_sym) compares two suffixes exactly
    as their decoded strings do whenever the keys differ, given maximal runs:

    - differing sym: the first decoded character decides;
    - equal sym, differing group: a run followed by a smaller symbol (group 0)
      precedes one followed by a larger symbol (group 1) no matter the lengths,
      because the comparison falls off the shorter run into that symbol;
    - same group: shorter runs first in group 0 (+length), longer runs first
      in group 1 (-length);
    - all else equal: the following symbols get compared directly.

    Terminator tokens get signed 0 and next_sym -1; their sym is unique in
    the token string, so it alone orders them. The fifth column is each
    token's decoded length, its run length (1 for a terminator).
    """
    syms, decoded = token_string(*seqs).T
    ends = token_bounds(seqs)[1:] - 1
    nexts = np.empty_like(syms)
    nexts[:-1] = syms[1:]
    nexts[ends] = -1
    # adjacent runs differ, so group 1 is exactly "next symbol is larger"
    groups = (nexts > syms).astype(np.int64)
    signed = np.where(groups == 0, decoded, -decoded)
    signed[ends] = 0
    return syms, groups, signed, nexts, decoded


def _dense_rank(columns: list[np.ndarray]) -> np.ndarray:
    """Dense ranks of row tuples; columns[0] is the most significant key."""
    n = len(columns[0])
    idx = np.lexsort(tuple(reversed(columns)))
    bump = np.zeros(n, dtype=np.int64)
    for col in columns:
        sorted_col = col[idx]
        bump[1:] |= sorted_col[1:] != sorted_col[:-1]
    rank = np.empty(n, dtype=np.int64)
    rank[idx] = np.cumsum(bump)
    return rank


def _prefix_double(rank0: np.ndarray) -> list[np.ndarray]:
    """Rank arrays of every doubling round over the token string's suffixes.

    Round k ranks each suffix by its first 2^k token keys; round 0 is rank0
    and the last round orders all suffixes. Each later round ranks by one
    int64 key, rank * (n + 1) + shifted + 1, where shifted is the rank 2^(k-1)
    tokens on, or -1 past the end: with rank < n and shifted + 1 <= n, the
    key is below n * (n + 1) < 2^63 for any n below 3 * 10^9, and it orders
    as the pair (rank, shifted) does, so one argsort and a bump where the
    sorted key changes give the pair's dense ranks (Manber & Myers).
    rounds <= ceil(log2 N) + 1, so keeping them all takes O(N * rounds)
    memory.
    """
    n = len(rank0)
    rounds = [rank0]
    step = 1
    while int(rounds[-1].max()) != n - 1:
        if step > 2 * n:
            raise AssertionError("suffix ranks failed to become distinct")
        key = rounds[-1] * (n + 1)
        key[: n - step] += rounds[-1][step:] + 1
        idx = np.argsort(key)
        sorted_key = key[idx]
        bump = np.zeros(n, dtype=np.int64)
        bump[1:] = sorted_key[1:] != sorted_key[:-1]
        rank = np.empty(n, dtype=np.int64)
        rank[idx] = np.cumsum(bump)
        rounds.append(rank)
        step *= 2
    return rounds


def _token_lcp(rounds: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """Per adjacent rank pair, the count of leading tokens with equal keys.

    Descends through the doubling rounds for all pairs at once (Manber &
    Myers): the last round's ranks are distinct, so every lcp is below its
    2^k, and round k adds 2^k wherever the next 2^k keys still agree.
    Equality is key equality (rank0), the same relation that defines the
    order. Coarser relations (say, equality of raw (symbol, length) pairs)
    would count tokens as shared across boundaries the order resolves by
    group or next-symbol. A shared block never spans a unique terminator, so
    a + h and b + h stay inside the token string.
    """
    a = order[:-1]
    b = order[1:]
    h = np.zeros(len(a), dtype=np.int64)
    for k in range(len(rounds) - 2, -1, -1):
        rank = rounds[k]
        h += (rank[a + h] == rank[b + h]).astype(np.int64) << k
    return h


def build_suffix_order(*seqs: RleSeq) -> SuffixOrder:
    """Sort all run-start suffixes of the sequences into decoded order.

    Tokens are ranked by their sort keys, the token string is suffix-sorted by
    prefix doubling, and token-level lcps are converted to decoded lengths via
    run-length prefix sums plus a min-length boundary term when the first
    key-unequal tokens still share a symbol. Unique terminator tokens stop
    every comparison at or before a sequence boundary, so one token string
    holds all the sequences safely, and a suffix and its shared prefix lie in
    one sequence, so each sequence gets its own prefix sum.
    """
    syms, groups, signed, nexts, decoded = _token_columns(seqs)
    rounds = _prefix_double(_dense_rank([syms, groups, signed, nexts]))
    order = np.argsort(rounds[-1])
    t = _token_lcp(rounds, order)
    del rounds

    bounds = token_bounds(seqs)
    ends = np.concatenate([np.cumsum(part) for part in np.split(decoded, bounds[1:-1])])
    start = ends - decoded
    a = order[:-1] + t
    b = order[1:] + t
    dlcp = start[a] - start[order[:-1]]
    dlcp += np.where(syms[a] == syms[b], np.minimum(decoded[a], decoded[b]), 0)
    seq_end = np.repeat(ends[bounds[1:] - 1], np.diff(bounds))

    return SuffixOrder(
        seqs=seqs,
        tokens=order,
        dlcp=dlcp,
        suffix_lengths=seq_end[order] - start[order],
    )


def _sweep_compact_trie(leaf_depths: list[int], gaps: list[int]):
    """Build a compact trie from ordered leaf depths and between-leaf lcps.

    One left-to-right sweep with a stack holding the rightmost root path in
    strictly increasing str_depth; a node's parent is fixed the moment it
    leaves the stack. Returns (parent, str_depth, leaf_nodes); node 0 is the
    root, at str_depth 0.
    """
    parent = [-1]
    str_depth = [0]
    stack = [0]
    leaf_nodes = []
    for k, depth in enumerate(leaf_depths):
        cut = gaps[k - 1] if k else 0
        last = -1
        while str_depth[stack[-1]] > cut:
            node = stack.pop()
            if last != -1:
                parent[last] = node
            last = node
        top = stack[-1]
        if last != -1:
            if str_depth[top] == cut:
                parent[last] = top
            else:
                mid = len(parent)
                parent.append(-1)
                str_depth.append(cut)
                parent[last] = mid
                stack.append(mid)
        leaf = len(parent)
        parent.append(-1)
        str_depth.append(depth)
        leaf_nodes.append(leaf)
        stack.append(leaf)
    last = -1
    while stack:
        node = stack.pop()
        if last != -1:
            parent[last] = node
        last = node
    return parent, str_depth, leaf_nodes


def build_trie(order: SuffixOrder) -> Trie:
    """Compact trie over all the ordered suffixes."""
    parent, str_depth, leaves = _sweep_compact_trie(
        order.suffix_lengths.tolist(), order.dlcp.tolist()
    )
    return Trie(parent, str_depth, leaves)


class RangeMin:
    """Immutable range-minimum index over an int array, inclusive bounds."""

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=np.int64)
        rows = [arr]
        span = 1
        while 2 * span <= len(arr):
            prev = rows[-1]
            rows.append(np.minimum(prev[: len(prev) - span], prev[span:]))
            span *= 2
        self._rows = rows

    def query_many(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        lengths = his - los + 1
        # exact floor(log2) via the float exponent; lengths are far below 2^53
        ks = np.frexp(lengths.astype(np.float64))[1] - 1
        out = np.empty(len(los), dtype=np.int64)
        for k in np.unique(ks):
            row = self._rows[k]
            mask = ks == k
            lo = los[mask]
            hi = his[mask]
            out[mask] = np.minimum(row[lo], row[hi - (1 << int(k)) + 1])
        return out
