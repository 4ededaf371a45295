"""One query trie over the suffixes, in blocks by their preceding run's symbol.

The paper answers each run of symbol c from a compact trie T_c over the
suffixes that follow a c-run. Those tries are the root's subtrees in one
compact trie, built here straight from the suffix order: its leaves are the
ranks whose suffix follows a run, one contiguous block per preceding-run
symbol, ranks ascending inside a block. The lcp between two neighbors in a
block is the minimum of the order's lcps over the gap, answered by a sparse
range-minimum table; between blocks it is 0. Every node carries freq, the
largest length of a preceding second-sequence run among the leaves below it,
and weight, a running sum that turns "sum of ancestor depths over a range of
thresholds" queries into two node lookups. rev_freq and rev_weight are the
same columns over the first sequence's leaves; they answer the reverse
direction of the pair from the same trie. Ancestor searches climb with
binary lifting, so each query costs O(log N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rleacs.suffixes import RangeMin, SuffixOrder, _sweep_compact_trie


@dataclass
class SymbolTrie:
    """Compact trie over the suffixes that follow a run, blocked by its symbol.

    leaves[j] is the node of the j-th leaf; the leaves of one preceding-run
    symbol form a contiguous block, in suffix order, and the blocks follow
    symbol order. freq/weight count the second sequence's leaves and serve
    queries from the first sequence's runs; rev_freq/rev_weight count the
    first sequence's leaves and serve the reverse direction. The reverse
    queries need no trie of their own: swapping the two sequences' roles
    only swaps the order of an X and a Y leaf with equal decoded content,
    which are siblings, so every parent and depth stays as it is.
    """

    parent: list[int]
    str_depth: list[int]
    leaves: list[int]
    freq: list[int] = field(default_factory=list)
    weight: list[int] = field(default_factory=list)
    rev_freq: list[int] = field(default_factory=list)
    rev_weight: list[int] = field(default_factory=list)
    _up: list[list[int]] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def deepest_freq_ancestor(
        self, leaf: int, threshold: int, reverse: bool = False
    ) -> int | None:
        """Deepest proper ancestor of leaf with freq >= threshold, if any.

        freq (rev_freq when reverse) never decreases toward the root, so the
        qualifying ancestors form a prefix of the root path; the climb takes
        the largest lifting jumps that stay strictly below the threshold,
        then steps to the parent.
        """
        freq = self.rev_freq if reverse else self.freq
        v = self.parent[leaf]
        if freq[v] >= threshold:
            return v
        for row in reversed(self._up):
            a = row[v]
            if a >= 0 and freq[a] < threshold:
                v = a
        p = self.parent[v]
        return p if p >= 0 else None


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
    edge length. Both columns ride on the same passes. popped is emptied
    once the weights are in, so the lifting rows can reuse its memory.
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

    # up[k][v] is the 2^k-th ancestor of v, or -1; a row is added while some
    # node still has an ancestor twice as far up as the last row reaches
    up = [parent]
    prev = parent
    while any(prev[a] >= 0 for a in prev if a >= 0):
        prev = [prev[a] if a >= 0 else -1 for a in prev]
        up.append(prev)

    trie.freq = freq
    trie.weight = weight
    trie.rev_freq = rev_freq
    trie.rev_weight = rev_weight
    trie._up = up
    return trie


def extract_symbol_tries(order: SuffixOrder, token_leaf: list[int]) -> SymbolTrie:
    """Build and annotate the query trie straight from the suffix order.

    The suffix at token t is preceded by the run at token t - 1, except the
    two sequence starts (tokens 0 and len(first.runs)), which have none.
    token_leaf holds one slot per token; token_leaf[t] is set to the leaf of
    token t's suffix, and the two sequence-start slots are left as they were.
    The order is no longer referenced once the trie's sweep starts.
    """
    nx = len(order.first.runs)
    runs = np.concatenate((order.first.runs, order.second.runs))
    tokens = order.tokens
    ranks = np.flatnonzero((tokens != 0) & (tokens != nx))
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
    for t, leaf in zip(leaf_tokens.tolist(), leaf_nodes):
        token_leaf[t] = leaf
    trie = SymbolTrie(parent=parent, str_depth=str_depth, leaves=leaf_nodes)
    return annotate(trie, popped, (leaf_tokens >= nx).tolist(), preceding[:, 1].tolist())
