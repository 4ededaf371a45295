import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_pair
from rleacs.suffixes import SuffixRef, build_suffix_order
from rleacs.symbol_tries import SymbolTrie, annotate, extract_symbol_tries


def build_tries(x, y):
    first, second, alpha = make_pair(x, y)
    order = build_suffix_order(first, second)
    return extract_symbol_tries(order), order, alpha


def test_extract_micro_pair():
    tries, order, alpha = build_tries("aab", "ab")
    a_id, b_id = alpha.to_id["a"], alpha.to_id["b"]
    assert set(tries) == {a_id, b_id}

    t_a = tries[a_id]
    # leaves: X suffix "b<s1>" (preceded by a-run of 2), Y suffix "b<s2>" (a-run of 1)
    assert [order.refs[k] for k in t_a.leaf_ranks] == [SuffixRef(0, 2), SuffixRef(1, 2)]
    assert t_a.leaf_from_second == [False, True]
    assert t_a.leaf_run_len == [2, 1]
    assert t_a.node_count == 4  # root, one mid node, two leaves
    mid = t_a.parent[t_a.leaves[0]]
    assert t_a.str_depth[mid] == 1
    assert t_a.parent[t_a.leaves[1]] == mid

    t_b = tries[b_id]
    # leaves: the two sentinel suffixes, lcp 0, both directly under the root
    assert [order.refs[k] for k in t_b.leaf_ranks] == [SuffixRef(0, 3), SuffixRef(1, 3)]
    assert [t_b.parent[v] for v in t_b.leaves] == [0, 0]
    assert t_b.node_count == 3


def test_annotate_micro_pair():
    tries, _, alpha = build_tries("aab", "ab")
    t_a = tries[alpha.to_id["a"]]
    mid = t_a.parent[t_a.leaves[0]]
    assert t_a.freq[mid] == 1
    assert t_a.weight[mid] == 1  # 0 + freq 1 * (depth 1 - depth 0)
    assert t_a.freq[0] == 1
    assert t_a.weight[0] == 0
    # leaves: type-X leaf freq 0, type-Y leaf freq = its run length
    assert t_a.freq[t_a.leaves[0]] == 0
    assert t_a.freq[t_a.leaves[1]] == 1


def test_annotate_no_second_sequence_leaves():
    # Y contributes no b-preceded suffixes, so T_b is X-only: all freq 0
    tries, _, alpha = build_tries("aba", "a")
    t_b = tries[alpha.to_id["b"]]
    assert not any(t_b.leaf_from_second)
    assert all(f == 0 for f in t_b.freq)
    assert all(w == 0 for w in t_b.weight)


def test_annotate_chain_recurrence():
    # hand-built chain: root -> v1(str 2) -> v2(str 7) with leaves giving
    # freq(v1) = 5 and freq(v2) = 3
    trie = SymbolTrie(
        parent=[-1, 0, 1, 2, 2, 1],
        str_depth=[0, 2, 7, 9, 10, 4],
        leaves=[3, 4, 5],
        leaf_ranks=[0, 1, 2],
        leaf_from_second=[True, True, True],
        leaf_run_len=[3, 2, 5],
    )
    annotate(trie)
    assert trie.freq[1] == 5
    assert trie.freq[2] == 3
    assert trie.weight[1] == 10  # 5 * (2 - 0)
    assert trie.weight[2] == 25  # 10 + 3 * (7 - 2)


def test_deepest_ancestor_micro():
    tries, _, alpha = build_tries("aab", "ab")
    t_a = tries[alpha.to_id["a"]]
    leaf = t_a.leaves[0]  # X suffix "b<s1>"
    mid = t_a.parent[leaf]
    assert t_a.deepest_freq_ancestor(leaf, 1) == mid
    assert t_a.deepest_freq_ancestor(leaf, 2) is None  # root freq is only 1
    assert t_a.deepest_y_ancestor(leaf) == mid


def test_deepest_ancestor_none_without_y_leaves():
    tries, _, alpha = build_tries("aba", "a")
    t_b = tries[alpha.to_id["b"]]
    leaf = t_b.leaves[0]
    assert t_b.deepest_y_ancestor(leaf) is None


def _walk_up_reference(trie, leaf, threshold):
    v = trie.parent[leaf]
    answer = None
    while v != -1:
        if trie.freq[v] >= threshold:
            answer = v
            break  # deepest qualifying: freq is monotone, first hit wins
        v = trie.parent[v]
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
        tries, _, _ = build_tries(x, y)
        for trie in tries.values():
            top = max(trie.freq) + 1
            for leaf in trie.leaves:
                for threshold in range(1, top + 1):
                    expect = _walk_up_reference(trie, leaf, threshold)
                    assert trie.deepest_freq_ancestor(leaf, threshold) == expect


@given(
    st.text(alphabet="ab", min_size=1, max_size=50),
    st.text(alphabet="ab", min_size=1, max_size=50),
)
def test_structural_invariants(x, y):
    first, second, _ = make_pair(x, y)
    order = build_suffix_order(first, second)
    token_leaf = [-1] * len(order)
    tries = extract_symbol_tries(order, token_leaf)

    annotated = sum(1 for ref in order.refs if ref.run >= 2)
    assert sum(len(t.leaves) for t in tries.values()) == annotated
    # the two sequence starts have no preceding run, every other token a leaf
    nx = len(first.runs)
    assert [t for t, leaf in enumerate(token_leaf) if leaf < 0] == [0, nx]

    for t in tries.values():
        assert [token_leaf[order.tokens[k]] for k in t.leaf_ranks] == t.leaves
        for freq, weight in ((t.freq, t.weight), (t.rev_freq, t.rev_weight)):
            # freq never decreases toward the root
            for v in range(t.node_count):
                p = t.parent[v]
                if p != -1:
                    assert freq[p] >= freq[v]
            # weight telescopes along every root path
            for leaf in t.leaves:
                v = t.parent[leaf]
                total = 0
                path = []
                while v != -1:
                    path.append(v)
                    v = t.parent[v]
                for node in reversed(path):
                    p = t.parent[node]
                    if p != -1:
                        total += freq[node] * (t.str_depth[node] - t.str_depth[p])
                    assert weight[node] == total
