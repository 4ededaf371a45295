"""One query trie over the suffixes, in blocks by their preceding run's symbol.

The paper answers each run of symbol c from a compact trie T_c over the
suffixes that follow a c-run. Those tries are the root's subtrees in one
compact trie, built here straight from the suffix order: its leaves are the
ranks whose suffix follows a run (every token of the pair's token string but
the two sequence starts, so a terminator's suffix follows its sequence's
last run), one contiguous block per preceding-run symbol, ranks ascending
inside a block. The lcp between two neighbors in a block is the minimum of
the order's lcps over the gap, answered by a sparse range-minimum table;
between blocks it is 0. Every node carries freq, the largest length of a
preceding second-sequence run among the leaves below it, and weight, a
running sum that turns "sum of ancestor depths over a range of thresholds"
queries into two node lookups. rev_freq and rev_weight are the same columns
over the first sequence's leaves; they answer the reverse direction of the
pair from the same trie.

extract_symbol_tries returns the trie whole, as one frozen record of
read-only arrays: int64 columns, int64 lifting rows, the leaf after each run
of either sequence, and the weights as object arrays of exact Python ints,
since they reach past int64. Ancestor searches climb with binary lifting,
one vectorized step per row for a whole batch of (leaf, threshold) pairs, so
a batch of q queries costs O(q log N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rleacs.suffixes import RangeMin, SuffixOrder, _sweep_compact_trie, token_string


@dataclass(frozen=True, eq=False)
class SymbolTrie:
    """Compact trie over the suffixes that follow a run, blocked by its symbol.

    Node 0 is the root, with parent -1. first_leaves[i] is the leaf of the
    suffix after run i + 1 of the first sequence, second_leaves[j] the one
    after run j + 1 of the second. Leaf ids ascend in leaf order: the leaves
    of one preceding-run symbol form a contiguous block, in suffix order,
    and the blocks follow symbol order. freq/weight count the second
    sequence's leaves and serve queries from the first sequence's runs;
    rev_freq/rev_weight count the first sequence's leaves and serve the
    reverse direction. The reverse queries need no trie of their own:
    swapping the two sequences' roles only swaps the order of an X and a Y
    leaf with equal decoded content, which are siblings, so every parent and
    depth stays as it is. up[k] maps each node to its 2^k-th ancestor.

    Every array is read-only; parent, str_depth, freq, rev_freq, the rows of
    up and the leaf arrays are int64, weight and rev_weight object arrays of
    Python ints.
    """

    parent: np.ndarray
    str_depth: np.ndarray
    freq: np.ndarray
    weight: np.ndarray
    rev_freq: np.ndarray
    rev_weight: np.ndarray
    up: tuple[np.ndarray, ...]
    first_leaves: np.ndarray
    second_leaves: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def deepest_freq_ancestor(self, leaves, thresholds, reverse: bool = False) -> np.ndarray:
        """Deepest proper ancestor of each leaf with freq >= its threshold, or -1.

        leaves and thresholds are int64 arrays (or broadcast against each
        other); the result has one node per pair. freq (rev_freq when
        reverse) never decreases toward the root, so the qualifying
        ancestors form a prefix of the root path. The climb starts at the
        parent, takes every lifting jump that stays strictly below the
        threshold, from the longest down, one np.where per row, and then
        steps to the parent; that step leaves the root as -1.
        """
        freq = self.rev_freq if reverse else self.freq
        thresholds = np.asarray(thresholds, dtype=np.int64)
        v = self.parent[np.asarray(leaves, dtype=np.int64)]
        for row in reversed(self.up):
            a = row[v]
            v = np.where(freq[a] < thresholds, a, v)
        return np.where(freq[v] >= thresholds, v, self.parent[v])


def _frozen(values, dtype=np.int64) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _lifting_rows(parent: np.ndarray) -> tuple[np.ndarray, ...]:
    """up[k][v], the 2^k-th ancestor of v, clamped at the root (node 0).

    The root is its own ancestor, so no row needs a mask. Rows double until
    the next would map every node to the root and so equal the one after
    it; it is not kept, since a climb starts at a leaf's parent, at most
    depth - 1 steps below the root, and the kept rows' jumps sum to at
    least that.
    """
    up = []
    row = np.maximum(parent, 0)
    while row.any():
        row.flags.writeable = False
        up.append(row)
        row = row[row]
    return tuple(up)


def annotate(
    parent: list[int],
    str_depth: list[int],
    popped: list[int],
    freq: list[int],
    rev_freq: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Complete both freq columns in place and return both weight columns.

    The lists are the sweep's: popped lists every node after all of its
    children. freq and rev_freq come in holding each leaf's preceding run
    length, in the column of that run's sequence (second, first), and 0
    elsewhere. freq flows bottom-up along popped as a subtree maximum;
    weight flows top-down along it reversed, as weight(parent) + freq(v) *
    edge length, and is returned as a read-only object array. popped is
    emptied.
    """
    for v in popped:
        p = parent[v]
        if p >= 0:
            if freq[v] > freq[p]:
                freq[p] = freq[v]
            if rev_freq[v] > rev_freq[p]:
                rev_freq[p] = rev_freq[v]

    n = len(parent)
    weight = [0] * n
    rev_weight = [0] * n
    for v in reversed(popped):
        p = parent[v]
        if p >= 0:
            edge = str_depth[v] - str_depth[p]
            weight[v] = weight[p] + freq[v] * edge
            rev_weight[v] = rev_weight[p] + rev_freq[v] * edge
    popped.clear()
    # one list at a time, each dropped as soon as its array exists
    weight = _frozen(weight, object)
    return weight, _frozen(rev_weight, object)


def extract_symbol_tries(order: SuffixOrder) -> SymbolTrie:
    """Build and annotate the query trie straight from the suffix order.

    The suffix at token t of token_string(order.first, order.second) is
    preceded by the run at token t - 1, except the two sequence starts
    (tokens 0 and len(first.runs) + 1), which have none. The order is no
    longer referenced once the trie's sweep starts.
    """
    first, second = order.first, order.second
    nx = len(first.runs)
    runs = token_string(first, second)
    tokens = order.tokens
    ranks = np.flatnonzero((tokens != 0) & (tokens != nx + 1))
    # stable, so ranks stay ascending inside each symbol's block
    by_sym = np.argsort(runs[tokens[ranks] - 1, 0], kind="stable")
    ranks = ranks[by_sym]
    leaf_tokens = tokens[ranks]
    depths = order.suffix_lengths[ranks].tolist()

    # Neighbors in one block get the range-min of the order's lcps between
    # them; neighbors in different blocks get 0, so each block hangs from
    # the root as the paper's per-symbol trie would. Sharing that root is
    # safe because a run of symbol s only asks thresholds h <= m_s, the
    # longest s-run of the other sequence, and the leaf after that run sits
    # in the s-block: both the block's own root and the shared root qualify,
    # each with str_depth 0 and weight 0.
    syms = runs[leaf_tokens - 1, 0]
    inner = np.flatnonzero(syms[1:] == syms[:-1])
    gaps = np.zeros(len(ranks) - 1, dtype=np.int64)
    gaps[inner] = RangeMin(order.dlcp).query_many(ranks[inner], ranks[inner + 1] - 1)
    gaps = gaps.tolist()
    del order, tokens, runs, ranks, by_sym, syms, inner

    parent, str_depth, leaf_nodes, popped = _sweep_compact_trie(depths, gaps)
    del depths, gaps
    # token t's leaf; the two sequence-start slots stay unset and unread
    leaf_at = np.empty(nx + len(second.runs) + 2, dtype=np.int64)
    leaf_at[leaf_tokens] = leaf_nodes
    leaf_at.flags.writeable = False
    first_leaves = leaf_at[1 : nx + 1]
    second_leaves = leaf_at[nx + 2 :]
    del leaf_tokens, leaf_nodes, leaf_at

    # each leaf starts at the length of the run before it, in its own side's column
    n = len(parent)
    freq = np.zeros(n, dtype=np.int64)
    freq[second_leaves] = second.runs[:, 1]
    freq = freq.tolist()
    rev_freq = np.zeros(n, dtype=np.int64)
    rev_freq[first_leaves] = first.runs[:, 1]
    rev_freq = rev_freq.tolist()
    weight, rev_weight = annotate(parent, str_depth, popped, freq, rev_freq)

    # each list is dropped as soon as its array exists, so no column is
    # ever held twice for long
    parent = _frozen(parent)
    str_depth = _frozen(str_depth)
    freq = _frozen(freq)
    rev_freq = _frozen(rev_freq)
    return SymbolTrie(
        parent=parent,
        str_depth=str_depth,
        freq=freq,
        weight=weight,
        rev_freq=rev_freq,
        rev_weight=rev_weight,
        up=_lifting_rows(parent),
        first_leaves=first_leaves,
        second_leaves=second_leaves,
    )
