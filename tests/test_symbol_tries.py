import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_pair
from rleacs.oracle import SuffixRef, suffix_refs
from rleacs.suffixes import build_suffix_order
from rleacs.symbol_tries import SymbolTrie, annotate, extract_symbol_tries


def no_leaves(order):
    return np.full(len(order), -1, dtype=np.int64)


def build_query_trie(x, y):
    first, second, alpha = make_pair(x, y)
    order = build_suffix_order(first, second)
    return extract_symbol_tries(order, no_leaves(order)), order, alpha


def leaf_ranks(trie, order, token_leaf):
    """Suffix-order rank of each trie leaf, in leaf order."""
    token_leaf = token_leaf.tolist()
    rank_of = {token_leaf[t]: k for k, t in enumerate(order.tokens.tolist()) if token_leaf[t] >= 0}
    return [rank_of[v] for v in trie.leaves]


def test_extract_micro_pair():
    first, second, alpha = make_pair("aab", "ab")
    order = build_suffix_order(first, second)
    token_leaf = no_leaves(order)
    trie = extract_symbol_tries(order, token_leaf)
    assert alpha.to_id["a"] < alpha.to_id["b"]
    # a-block: X suffix "b<s1>" (after an a-run of 2), Y suffix "b<s2>"
    # (a-run of 1); b-block: the two terminator suffixes
    refs = suffix_refs(order)
    assert [refs[k] for k in leaf_ranks(trie, order, token_leaf)] == [
        SuffixRef(0, 2),
        SuffixRef(1, 2),
        SuffixRef(0, 3),
        SuffixRef(1, 3),
    ]
    # a leaf's freq is its preceding run's length when that run is Y's,
    # its rev_freq when it is X's
    assert [trie.freq[v] for v in trie.leaves] == [0, 1, 0, 1]
    assert [trie.rev_freq[v] for v in trie.leaves] == [2, 0, 1, 0]
    # root, the a-block's mid node and its two leaves, the two b-leaves
    assert trie.node_count == 6
    a_x, a_y, b_x, b_y = trie.leaves
    mid = trie.parent[a_x]
    assert trie.str_depth[mid] == 1
    assert trie.parent[a_y] == mid
    assert trie.parent[mid] == 0
    # the terminator suffixes share no prefix: both hang from the root
    assert [trie.parent[b_x], trie.parent[b_y]] == [0, 0]


def test_annotate_micro_pair():
    trie, _, _ = build_query_trie("aab", "ab")
    mid = trie.parent[trie.leaves[0]]
    assert trie.freq[mid] == 1
    assert trie.weight[mid] == 1  # 0 + freq 1 * (depth 1 - depth 0)
    assert trie.freq[0] == 1
    assert trie.weight[0] == 0
    # leaves: type-X leaf freq 0, type-Y leaf freq = its run length
    assert trie.freq[trie.leaves[0]] == 0
    assert trie.freq[trie.leaves[1]] == 1


def test_annotate_no_second_sequence_leaves():
    # Y contributes no b-preceded suffix, so the b-block is one X leaf: freq
    # 0 below the root, which carries the a-block's Y leaf
    trie, _, _ = build_query_trie("aba", "a")
    b_leaf = trie.leaves[-1]
    assert trie.rev_freq[b_leaf] == 1
    assert trie.parent[b_leaf] == 0
    assert trie.freq[b_leaf] == 0 and trie.weight[b_leaf] == 0
    assert trie.freq[0] == 1 and trie.weight[0] == 0


def test_annotate_chain_recurrence():
    # hand-built chain: root -> v1(str 2) -> v2(str 7) with leaves giving
    # freq(v1) = 5 and freq(v2) = 3
    trie = SymbolTrie(
        parent=[-1, 0, 1, 2, 2, 1],
        str_depth=[0, 2, 7, 9, 10, 4],
        leaves=[3, 4, 5],
    )
    annotate(trie, [3, 4, 2, 5, 1, 0], [True, True, True], [3, 2, 5])
    assert trie.freq[1] == 5
    assert trie.freq[2] == 3
    assert trie.weight[1] == 10  # 5 * (2 - 0)
    assert trie.weight[2] == 25  # 10 + 3 * (7 - 2)


def test_annotate_leaves_int64_columns():
    trie, _, _ = build_query_trie("aabba", "abab")
    for column in (trie.parent, trie.str_depth, trie.freq, trie.rev_freq, *trie._up):
        assert isinstance(column, np.ndarray) and column.dtype == np.int64
        assert len(column) == trie.node_count
    assert all(type(w) is int for w in trie.weight + trie.rev_weight)
    # rows double until the next would map every node to the root (node 0)
    top = trie._up[-1]
    assert top.any() and not top[top].any()


def test_deepest_ancestor_micro():
    trie, _, _ = build_query_trie("aab", "ab")
    leaf = trie.leaves[0]  # X suffix "b<s1>"
    mid = trie.parent[leaf]
    # root freq is only 1, so threshold 2 has no qualifying ancestor
    assert trie.deepest_freq_ancestor([leaf, leaf], [1, 2]).tolist() == [mid, -1]


def test_deepest_ancestor_none_without_y_leaves():
    # the b-block has no Y leaf; at threshold 1 the climb ends at the shared
    # root (str_depth 0, weight 0, as a b-only root would have), and above
    # the root's freq there is no qualifying ancestor
    trie, _, _ = build_query_trie("aba", "a")
    leaf = trie.leaves[-1]
    assert trie.deepest_freq_ancestor([leaf, leaf], [1, 2]).tolist() == [0, -1]


def _walk_up_reference(parent, freq, leaf, threshold):
    v = parent[leaf]
    answer = -1
    while v != -1:
        if freq[v] >= threshold:
            answer = v
            break  # deepest qualifying: freq is monotone, first hit wins
        v = parent[v]
    return answer


def _random_runny_text(rng, n, alphabet):
    out = []
    while len(out) < n:
        ch = rng.choice(alphabet)
        if out and out[-1] == ch:
            continue
        out.extend(ch * rng.randint(1, 6))
    return "".join(out[:n])


def test_searches_match_linear_walk_random():
    rng = random.Random(19)
    for _ in range(60):
        x = _random_runny_text(rng, rng.randint(2, 80), "ab")
        y = _random_runny_text(rng, rng.randint(2, 80), "ab")
        trie, _, _ = build_query_trie(x, y)
        parent = trie.parent.tolist()
        for reverse, freq in ((False, trie.freq), (True, trie.rev_freq)):
            freq = freq.tolist()
            # thresholds run past the root's freq, where no ancestor qualifies
            pairs = [(leaf, h) for leaf in trie.leaves for h in range(0, freq[0] + 3)]
            leaves, thresholds = (np.array(column, dtype=np.int64) for column in zip(*pairs))
            got = trie.deepest_freq_ancestor(leaves, thresholds, reverse).tolist()
            assert got == [_walk_up_reference(parent, freq, *pair) for pair in pairs]


@given(
    st.text(alphabet="ab", min_size=1, max_size=50),
    st.text(alphabet="ab", min_size=1, max_size=50),
)
def test_structural_invariants(x, y):
    first, second, _ = make_pair(x, y)
    order = build_suffix_order(first, second)
    token_leaf = no_leaves(order)
    t = extract_symbol_tries(order, token_leaf)

    ranks = leaf_ranks(t, order, token_leaf)
    assert sorted(ranks) == [k for k, ref in enumerate(suffix_refs(order)) if ref.run >= 2]
    # the two sequence starts have no preceding run, every other token a leaf
    nx = len(first.runs)
    assert np.flatnonzero(token_leaf < 0).tolist() == [0, nx + 1]
    assert sorted(token_leaf[token_leaf >= 0].tolist()) == sorted(t.leaves)

    parent = t.parent.tolist()
    str_depth = t.str_depth.tolist()
    for freq, weight in ((t.freq.tolist(), t.weight), (t.rev_freq.tolist(), t.rev_weight)):
        # freq never decreases toward the root
        for v in range(t.node_count):
            p = parent[v]
            if p != -1:
                assert freq[p] >= freq[v]
        # weight telescopes along every root path
        for leaf in t.leaves:
            v = parent[leaf]
            total = 0
            path = []
            while v != -1:
                path.append(v)
                v = parent[v]
            for node in reversed(path):
                p = parent[node]
                if p != -1:
                    total += freq[node] * (str_depth[node] - str_depth[p])
                assert weight[node] == total
