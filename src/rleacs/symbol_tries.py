"""One query trie over the suffixes, in blocks by their preceding run's symbol.

The paper answers each run of symbol c from a compact trie T_c over the
suffixes that follow a c-run. Those tries are the root's subtrees in one
compact trie, built here straight from the suffix order: its leaves are the
ranks whose suffix follows a run (every token of the pair's token string but
the two sequence starts, so a terminator's suffix follows its sequence's
last run), one contiguous block per preceding-run symbol, ranks ascending
inside a block. The lcp between two neighbors in a
block is the minimum of the order's lcps over the gap, answered by a sparse
range-minimum table; between blocks it is 0. Every node carries freq, the
largest length of a preceding second-sequence run among the leaves below it,
and weight, a running sum that turns "sum of ancestor depths over a range of
thresholds" queries into two node lookups. rev_freq and rev_weight are the
same columns over the first sequence's leaves; they answer the reverse
direction of the pair from the same trie. parent, str_depth, freq and
rev_freq are int64 arrays; the weights reach past int64 and stay exact
Python ints. Ancestor searches climb with binary lifting over int64 rows,
one vectorized step per row for a whole batch of (leaf, threshold) pairs,
so a batch of q queries costs O(q log N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rleacs.suffixes import RangeMin, SuffixOrder, _sweep_compact_trie, token_string


@dataclass
class SymbolTrie:
    """Compact trie over the suffixes that follow a run, blocked by its symbol.

    leaves[j] is the node of the j-th leaf; the leaves of one preceding-run
    symbol form a contiguous block, in suffix order, and the blocks follow
    symbol order. Node 0 is the root, with parent -1. freq/weight count the
    second sequence's leaves and serve queries from the first sequence's
    runs; rev_freq/rev_weight count the first sequence's leaves and serve the
    reverse direction. The reverse queries need no trie of their own:
    swapping the two sequences' roles only swaps the order of an X and a Y
    leaf with equal decoded content, which are siblings, so every parent and
    depth stays as it is.

    The sweep hands annotate parent and str_depth as lists; after annotate,
    parent, str_depth, freq, rev_freq and the lifting rows are int64
    arrays, and weight/rev_weight are lists of exact Python ints.
    """

    parent: np.ndarray
    str_depth: np.ndarray
    leaves: list[int]
    freq: np.ndarray | None = None
    weight: list[int] = field(default_factory=list)
    rev_freq: np.ndarray | None = None
    rev_weight: list[int] = field(default_factory=list)
    _up: list[np.ndarray] = field(default_factory=list)

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
        for row in reversed(self._up):
            a = row[v]
            v = np.where(freq[a] < thresholds, a, v)
        return np.where(freq[v] >= thresholds, v, self.parent[v])


def _lifting_rows(parent: np.ndarray) -> list[np.ndarray]:
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
        up.append(row)
        row = row[row]
    return up


def annotate(
    trie: SymbolTrie,
    popped: list[int],
    leaf_from_second: list[bool],
    leaf_run_len: list[int],
) -> SymbolTrie:
    """Fill both freq/weight columns and the lifting rows, in place.

    popped lists every node after all of its children, as the sweep pops
    them. leaf_from_second[j] and leaf_run_len[j] describe the run before
    the suffix of trie.leaves[j]: whether it belongs to the second sequence,
    and its length. freq flows bottom-up along popped as a subtree maximum
    over second-sequence leaf run lengths (rev_freq over first-sequence ones);
    weight flows top-down along it reversed, as weight(parent) + freq(v) *
    edge length. Both columns ride on the same passes, over Python lists;
    then parent, str_depth, freq and rev_freq become int64 arrays, and the
    lists and popped are released before the lifting rows are built.
    """
    parent = trie.parent
    str_depth = trie.str_depth
    n = len(parent)

    freq = [0] * n
    rev_freq = [0] * n
    for leaf, from_second, run_len in zip(trie.leaves, leaf_from_second, leaf_run_len):
        if from_second:
            freq[leaf] = run_len
        else:
            rev_freq[leaf] = run_len
    for v in popped:
        p = parent[v]
        if p >= 0:
            if freq[v] > freq[p]:
                freq[p] = freq[v]
            if rev_freq[v] > rev_freq[p]:
                rev_freq[p] = rev_freq[v]

    weight = [0] * n
    rev_weight = [0] * n
    for v in reversed(popped):
        p = parent[v]
        if p >= 0:
            edge = str_depth[v] - str_depth[p]
            weight[v] = weight[p] + freq[v] * edge
            rev_weight[v] = rev_weight[p] + rev_freq[v] * edge
    popped.clear()

    # each list column is dropped as soon as its array exists, so no column
    # is ever held twice for long
    del parent, str_depth
    trie.parent = np.array(trie.parent, dtype=np.int64)
    trie.str_depth = np.array(trie.str_depth, dtype=np.int64)
    trie.freq = np.array(freq, dtype=np.int64)
    del freq
    trie.rev_freq = np.array(rev_freq, dtype=np.int64)
    del rev_freq
    trie.weight = weight
    trie.rev_weight = rev_weight
    trie._up = _lifting_rows(trie.parent)
    return trie


def extract_symbol_tries(order: SuffixOrder, token_leaf: np.ndarray) -> SymbolTrie:
    """Build and annotate the query trie straight from the suffix order.

    The suffix at token t of token_string(order.first, order.second) is
    preceded by the run at token t - 1, except the two sequence starts
    (tokens 0 and len(first.runs) + 1), which have none. token_leaf is an
    int64 array with one slot per token; token_leaf[t] is set to the leaf of
    token t's suffix, and the two sequence-start slots are left as they
    were. The order is no longer referenced once the trie's sweep starts.
    """
    nx = len(order.first.runs)
    runs = token_string(order.first, order.second)
    tokens = order.tokens
    ranks = np.flatnonzero((tokens != 0) & (tokens != nx + 1))
    # stable, so ranks stay ascending inside each symbol's block
    by_sym = np.argsort(runs[tokens[ranks] - 1, 0], kind="stable")
    ranks = ranks[by_sym]
    leaf_tokens = tokens[ranks]
    preceding = runs[leaf_tokens - 1]
    depths = order.suffix_lengths[ranks].tolist()

    # Neighbors in one block get the range-min of the order's lcps between
    # them; neighbors in different blocks get 0, so each block hangs from
    # the root as the paper's per-symbol trie would. Sharing that root is
    # safe because a run of symbol s only asks thresholds h <= m_s, the
    # longest s-run of the other sequence, and the leaf after that run sits
    # in the s-block: both the block's own root and the shared root qualify,
    # each with str_depth 0 and weight 0.
    syms = preceding[:, 0]
    inner = np.flatnonzero(syms[1:] == syms[:-1])
    gaps = np.zeros(len(ranks) - 1, dtype=np.int64)
    gaps[inner] = RangeMin(order.dlcp).query_many(ranks[inner], ranks[inner + 1] - 1)
    gaps = gaps.tolist()
    del order, tokens, runs, ranks, by_sym, syms, inner

    parent, str_depth, leaf_nodes, popped = _sweep_compact_trie(depths, gaps)
    del depths, gaps
    token_leaf[leaf_tokens] = leaf_nodes
    trie = SymbolTrie(parent=parent, str_depth=str_depth, leaves=leaf_nodes)
    # annotate turns the trie's lists into arrays; no other reference may
    # keep the lists alive beside them
    del parent, str_depth
    return annotate(trie, popped, (leaf_tokens > nx).tolist(), preceding[:, 1].tolist())
