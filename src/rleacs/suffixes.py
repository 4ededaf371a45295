"""Suffix ordering of a run-length encoded pair, and the compact trie over it.

Only suffixes that begin at run boundaries take part: sequence s contributes
one suffix per run. The two run lists are concatenated into one token string
(token t is run t+1 of the first sequence when t < len(first.runs), else run
t-len(first.runs)+1 of the second), and a SuffixOrder maps each rank to the
token its suffix starts at. All depths and lcp values here are decoded
lengths, never run counts. The token key columns come straight from the int64
run arrays, and every key and rank fits in int64; decoded lcps and suffix
lengths stay within one sequence (at most 2^62), but prefix sums over both
sequences reach 2^63, so those loops work on Python ints.

The engine reads only the suffix order: its query trie is built from it
directly, with range-minimum queries over the lcps, and the order is dropped
once that trie exists. The compact trie over all suffixes (build_trie) exists
for the structural checks of the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from rleacs.rle import RleSeq, ensure_pair


@dataclass(frozen=True)
class SuffixOrder:
    """All run-start suffixes of a pair, sorted by decoded string order.

    tokens[k] is the token index of the suffix at rank k; dlcp[k] is the
    decoded longest-common-prefix length of the suffixes at ranks k and k+1;
    suffix_lengths[k] is the decoded length (sentinel included) of the suffix
    at rank k.
    """

    first: RleSeq
    second: RleSeq
    tokens: list[int]
    dlcp: list[int]
    suffix_lengths: list[int]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Trie:
    """Compact trie over all run-start suffixes, leaves in suffix order."""

    parent: list[int]
    str_depth: list[int]
    leaves: list[int]


def longest_run_table(seq: RleSeq, size: int) -> np.ndarray:
    """Longest run of each symbol id below size in the sequence body, 0 where absent.

    size must exceed every id that will be looked up, not only those in seq.
    """
    table = np.zeros(size, dtype=np.int64)
    np.maximum.at(table, seq.runs[:-1, 0], seq.runs[:-1, 1])
    return table


def _token_columns(first: RleSeq, second: RleSeq):
    """Both run arrays as per-token sort-key columns.

    A token's key (sym, group, signed, next_sym) compares two suffixes exactly
    as their decoded strings do whenever the keys differ, given maximal runs:

    - differing sym: the first decoded character decides;
    - equal sym, differing group: a run followed by a smaller symbol (group 0)
      precedes one followed by a larger symbol (group 1) no matter the lengths,
      because the comparison falls off the shorter run into that symbol;
    - same group: shorter runs first in group 0 (+length), longer runs first
      in group 1 (-length);
    - all else equal: the following symbols get compared directly.

    Sentinel tokens get (sym, 0, 0, -1); their sym (0 or 1) is unique in the
    whole token string and below every body symbol. The fifth column is each
    token's decoded length, its run length (1 for a sentinel).
    """
    syms, decoded = np.concatenate((first.runs, second.runs)).T
    sentinels = [len(first.runs) - 1, len(syms) - 1]
    nexts = np.empty_like(syms)
    nexts[:-1] = syms[1:]
    nexts[sentinels] = -1
    # adjacent runs differ, so group 1 is exactly "next symbol is larger"
    groups = (nexts > syms).astype(np.int64)
    signed = np.where(groups == 0, decoded, -decoded)
    signed[sentinels] = 0
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


def _prefix_double(rank0: np.ndarray) -> np.ndarray:
    """Ranks of all token-string suffixes by repeated doubling from rank0."""
    n = len(rank0)
    rank = rank0
    step = 1
    while int(rank.max()) != n - 1:
        if step > 2 * n:
            raise AssertionError("suffix ranks failed to become distinct")
        shifted = np.full(n, -1, dtype=np.int64)
        shifted[: n - step] = rank[step:]
        rank = _dense_rank([rank, shifted])
        step *= 2
    return rank


def _token_lcp(order: list[int], rank: list[int], rank0: list[int]) -> list[int]:
    """Per adjacent rank pair, the count of leading tokens with equal keys.

    Kasai's sweep; equality is key equality (rank0), the same relation that
    defines the order, which the h-carrying argument requires. Coarser
    relations (say, equality of raw (symbol, length) pairs) would carry stale
    h values across boundaries the order resolves by group or next-symbol.
    """
    n = len(order)
    klcp = [0] * (n - 1)
    h = 0
    for i in range(n):
        r = rank[i]
        if r == 0:
            h = 0
            continue
        j = order[r - 1]
        while i + h < n and j + h < n and rank0[i + h] == rank0[j + h]:
            h += 1
        klcp[r - 1] = h
        if h:
            h -= 1
    return klcp


def build_suffix_order(first: RleSeq, second: RleSeq) -> SuffixOrder:
    """Sort all run-start suffixes of the pair into decoded order.

    Tokens are ranked by their sort keys, the token string is suffix-sorted by
    prefix doubling, and token-level lcps are converted to decoded lengths via
    run-length prefix sums plus a min-length boundary term when the first
    key-unequal tokens still share a symbol. Unique sentinel tokens stop every
    comparison at or before a sequence boundary, so concatenating the two
    token lists is safe.
    """
    first, second = ensure_pair(first, second)
    syms, groups, signed, nexts, decoded = _token_columns(first, second)
    n = len(syms)
    nx = len(first.runs)
    rank0_arr = _dense_rank([syms, groups, signed, nexts])
    rank_arr = _prefix_double(rank0_arr)
    order_arr = np.argsort(rank_arr)

    order = order_arr.tolist()
    rank = rank_arr.tolist()
    rank0 = rank0_arr.tolist()
    klcp = _token_lcp(order, rank, rank0)

    # decoded prefix sums over tokens; sums can exceed int64 so stay in ints
    syms, decoded = syms.tolist(), decoded.tolist()
    prefix = list(accumulate(decoded, initial=0))
    total_first = prefix[nx]
    total_all = prefix[n]

    suffix_lengths = [(total_first if i < nx else total_all) - prefix[i] for i in order]

    dlcp = []
    for r in range(n - 1):
        a = order[r]
        b = order[r + 1]
        t = klcp[r]
        d = prefix[a + t] - prefix[a]
        if syms[a + t] == syms[b + t]:
            d += min(decoded[a + t], decoded[b + t])
        dlcp.append(d)

    return SuffixOrder(
        first=first,
        second=second,
        tokens=order,
        dlcp=dlcp,
        suffix_lengths=suffix_lengths,
    )


def _sweep_compact_trie(leaf_depths: list[int], gaps: list[int]):
    """Build a compact trie from ordered leaf depths and between-leaf lcps.

    One left-to-right sweep with a stack holding the rightmost root path in
    strictly increasing str_depth. A node's parent is fixed the moment it
    leaves the stack, so popped, the order in which nodes leave it, lists
    every node after all of its children and ends with the root. Returns
    (parent, str_depth, leaf_nodes, popped); node 0 is the root, at
    str_depth 0.
    """
    parent = [-1]
    str_depth = [0]
    stack = [0]
    leaf_nodes = []
    popped = []
    for k, depth in enumerate(leaf_depths):
        cut = gaps[k - 1] if k else 0
        last = -1
        while str_depth[stack[-1]] > cut:
            node = stack.pop()
            popped.append(node)
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
        popped.append(node)
        if last != -1:
            parent[last] = node
        last = node
    return parent, str_depth, leaf_nodes, popped


def build_trie(order: SuffixOrder) -> Trie:
    """Compact trie over all the ordered suffixes."""
    parent, str_depth, leaves, _ = _sweep_compact_trie(order.suffix_lengths, order.dlcp)
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
