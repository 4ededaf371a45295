"""Per-symbol tries over suffixes grouped by their preceding run's symbol.

For each symbol, the ranks of the suffix order whose suffix follows a run of
that symbol are assembled into a compact trie of their own, straight from the
order: the lcp between two selected neighbors is the minimum of the order's
lcps over the gap, answered by a sparse range-minimum table. Every node
carries freq, the largest length of a preceding second-sequence run among the
leaves below it, and weight, a running sum that turns "sum of ancestor depths
over a range of thresholds" queries into two node lookups. rev_freq and
rev_weight are the same columns over the first sequence's leaves; they answer
the reverse direction of the pair from the same tries. Ancestor searches
climb with binary lifting, so each query costs O(log N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rleacs.suffixes import RangeMin, SuffixOrder, _sweep_compact_trie


@dataclass
class SymbolTrie:
    """Compact trie over the suffixes preceded by a run of one symbol.

    leaves[j] is the node of the j-th leaf in suffix order; leaf_ranks[j] is
    its rank in the SuffixOrder, and leaf_run_len[j] the length of the run
    before it. freq/weight count the second sequence's leaves and serve
    queries from the first sequence's runs; rev_freq/rev_weight count the
    first sequence's leaves and serve the reverse direction. The reverse
    queries need no tries of their own: swapping the two sequences' roles
    only swaps the order of an X and a Y leaf with equal decoded content,
    which are siblings, so every parent and depth stays as it is.
    """

    parent: list[int]
    str_depth: list[int]
    leaves: list[int]
    leaf_ranks: list[int]
    leaf_from_second: list[bool]
    leaf_run_len: list[int]
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

    def deepest_y_ancestor(self, leaf: int) -> int | None:
        """Deepest proper ancestor with any second-sequence leaf below it."""
        return self.deepest_freq_ancestor(leaf, 1)


def annotate(trie: SymbolTrie) -> SymbolTrie:
    """Fill both freq/weight columns and the lifting rows, in place.

    freq flows bottom-up as a subtree maximum over second-sequence leaf run
    lengths (rev_freq over first-sequence ones); weight flows top-down as
    weight(parent) + freq(v) * edge length. Processing nodes by str_depth
    orders parents before children (edges have strictly positive decoded
    length). Both columns ride on the same passes.
    """
    parent = trie.parent
    str_depth = trie.str_depth
    n = len(parent)
    by_depth = sorted(range(n), key=str_depth.__getitem__)

    freq = [0] * n
    rev_freq = [0] * n
    for leaf, from_second, run_len in zip(
        trie.leaves, trie.leaf_from_second, trie.leaf_run_len
    ):
        if from_second:
            freq[leaf] = run_len
        else:
            rev_freq[leaf] = run_len
    for v in reversed(by_depth):
        p = parent[v]
        if p >= 0:
            if freq[v] > freq[p]:
                freq[p] = freq[v]
            if rev_freq[v] > rev_freq[p]:
                rev_freq[p] = rev_freq[v]

    # node_depth counts the nodes on the root path (root = 1); it only sizes
    # the lifting table
    node_depth = [1] * n
    weight = [0] * n
    rev_weight = [0] * n
    for v in by_depth:
        p = parent[v]
        if p >= 0:
            node_depth[v] = node_depth[p] + 1
            edge = str_depth[v] - str_depth[p]
            weight[v] = weight[p] + freq[v] * edge
            rev_weight[v] = rev_weight[p] + rev_freq[v] * edge

    up = [parent]
    max_depth = max(node_depth)
    while (1 << len(up)) < max_depth:
        prev = up[-1]
        up.append([prev[a] if a >= 0 else -1 for a in prev])

    trie.freq = freq
    trie.weight = weight
    trie.rev_freq = rev_freq
    trie.rev_weight = rev_weight
    trie._up = up
    return trie


def extract_symbol_tries(
    order: SuffixOrder, token_leaf: list[int] | None = None
) -> dict[int, SymbolTrie]:
    """Group the ranked suffixes by preceding-run symbol and build their tries.

    The suffix at token t is preceded by the run at token t - 1, except the
    two sequence starts (tokens 0 and len(first.runs)), which have none.
    Leaves keep their global order. When token_leaf is given (one slot per
    token), token_leaf[t] is set to the leaf of token t's suffix in the trie
    of its preceding run's symbol; the two sequence-start slots are left as
    they were.
    """
    runs = order.first.runs + order.second.runs
    nx = len(order.first.runs)
    tokens = order.tokens
    by_sym: dict[int, list[int]] = {}
    for rank, t in enumerate(tokens):
        if t != 0 and t != nx:
            by_sym.setdefault(runs[t - 1].sym, []).append(rank)

    # all neighbor lcps first, so the range-min table is freed before the
    # tries and their annotations are built
    rmq = RangeMin(order.dlcp) if order.dlcp else None
    gaps: dict[int, list[int]] = {}
    for sym, ranks in by_sym.items():
        if len(ranks) > 1:
            los = np.array(ranks[:-1], dtype=np.int64)
            his = np.array(ranks[1:], dtype=np.int64) - 1
            gaps[sym] = rmq.query_many(los, his)
        else:
            gaps[sym] = []
    del rmq

    suffix_lengths = order.suffix_lengths
    tries: dict[int, SymbolTrie] = {}
    for sym, ranks in by_sym.items():
        depths = [suffix_lengths[k] for k in ranks]
        parent, str_depth, leaf_nodes = _sweep_compact_trie(depths, gaps.pop(sym))
        leaf_tokens = [tokens[k] for k in ranks]
        if token_leaf is not None:
            for t, leaf in zip(leaf_tokens, leaf_nodes):
                token_leaf[t] = leaf
        sub = SymbolTrie(
            parent=parent,
            str_depth=str_depth,
            leaves=leaf_nodes,
            leaf_ranks=ranks,
            leaf_from_second=[t >= nx for t in leaf_tokens],
            leaf_run_len=[runs[t - 1].length for t in leaf_tokens],
        )
        tries[sym] = annotate(sub)
    return tries
