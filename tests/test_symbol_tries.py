import dataclasses
import random
import sys
import threading
import weakref
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import column_weights, make_pair, random_runny_text
from rleacs import bench, symbol_tries
from rleacs.engine import AcsEngine, _closed_form
from rleacs.oracle import SuffixRef, suffix_refs
from rleacs.rle import FIRST_SYMBOL_ID, encode
from rleacs.suffixes import build_suffix_order
from rleacs.symbol_tries import (
    JUMP_ROUNDS,
    LIMB_BITS,
    LIMB_MASK,
    SymbolTrie,
    _compact_trie,
    _lifting_rows,
    annotate,
    exact_ints,
    exact_total,
    extract_symbol_tries,
    leaf_blocks,
    limb_carry,
    limb_product,
    limb_tokens,
)
from rleacs.verify import (
    _keyed_shape,
    _leaf_intervals,
    _structural_checks,
    _sweep_compact_trie,
    _sweep_mismatches,
    _whole_trie,
    brute_column,
)


def build_query_trie(x, y):
    seqs = make_pair(x, y)
    return extract_symbol_tries(*seqs), seqs


def record_parents(trie):
    """trie.run_parents cut into one array per record, its terminator's entry left out."""
    return [trie.run_parents[trie.record(j)] for j in range(len(trie.bounds) - 1)]


def pair_columns(trie, seqs):
    """The pair's two columns: (second's, first's), the forward and reverse ones."""
    first, second = (
        annotate(trie, parents, seq.runs) for parents, seq in zip(record_parents(trie), seqs)
    )
    return second, first


def leaf_parents(trie, seqs):
    """The parent of every leaf, in leaf order."""
    tokens, _ = leaf_blocks(build_suffix_order(*seqs))
    return trie.run_parents[tokens - 1].tolist()


def leaf_depths(order, tokens):
    """The decoded length of every leaf's suffix, in leaf order."""
    rank = np.argsort(order.tokens)
    return order.suffix_lengths[rank[tokens]].tolist()


def test_extract_micro_pair():
    seqs = make_pair("aab", "ab")
    order = build_suffix_order(*seqs)
    trie = extract_symbol_tries(*seqs)
    # a-block: X suffix "b<s1>" (after an a-run of 2), Y suffix "b<s2>"
    # (a-run of 1); b-block: the two terminator suffixes
    refs = suffix_refs(order)
    rank = np.argsort(order.tokens)
    assert [refs[k] for k in rank[leaf_blocks(order)[0]]] == [
        SuffixRef(0, 2),
        SuffixRef(1, 2),
        SuffixRef(0, 3),
        SuffixRef(1, 3),
    ]
    # a leaf stands for its preceding run's length in the forward column
    # when that run is Y's, in the reverse one when it is X's; the columns
    # hold the subtree maxima of those values at the root and mid
    parents = leaf_parents(trie, seqs)
    forward, reverse = pair_columns(trie, seqs)
    assert forward.freq.tolist() == brute_column(trie, parents, [0, 1, 0, 1])[0] == [1, 1]
    assert reverse.freq.tolist() == brute_column(trie, parents, [2, 0, 1, 0])[0] == [2, 2]
    # root, the a-block's mid node and its two leaves, the two b-leaves
    assert trie.node_count == 6 and trie.internal == 2
    a_x, a_y, b_x, b_y = parents
    mid = a_x
    assert trie.str_depth[mid] == 1
    assert a_y == mid
    assert trie.parent[mid] == 0
    # the terminator suffixes share no prefix: both hang from the root
    assert [b_x, b_y] == [0, 0]


def test_extract_builds_no_neighbor_lcps():
    # the trie's gaps come from order.lcp; dlcp is built only when read, and
    # leaf_blocks reads nothing else of the order
    first, second = make_pair("abaab", "bab")
    order = build_suffix_order(first, second)
    leaf_blocks(order)
    assert "dlcp" not in vars(order)
    assert order.dlcp.tolist() == [0, 0, 1, 2, 0, 1, 1, 2]
    assert "dlcp" in vars(order)


def test_annotate_micro_pair():
    trie, seqs = build_query_trie("aab", "ab")
    column, _ = pair_columns(trie, seqs)
    parents = leaf_parents(trie, seqs)
    mid = parents[0]
    assert column.freq[mid] == 1
    assert column.weight[mid] == 1  # 0 + freq 1 * (depth 1 - depth 0)
    assert column.freq[0] == 1
    assert column.weight[0] == 0
    # the leaves have no entries: the type-X leaf stands for 0 and the
    # type-Y leaf for its run length, and mid holds their maximum
    assert column.freq.shape == column.weight.shape == (trie.internal,) == (2,)
    assert (column.freq.tolist(), column.weight.tolist()) == brute_column(
        trie, parents, [0, 1, 0, 1]
    )


def test_annotate_no_second_sequence_leaves():
    # Y contributes no b-preceded suffix, so the b-block is one X leaf: freq
    # 0 below the root, which carries the a-block's Y leaf
    trie, seqs = build_query_trie("aba", "a")
    column, reverse = pair_columns(trie, seqs)
    b_parent = leaf_parents(trie, seqs)[-1]
    assert b_parent == 0
    # X's b-run of 1 before the b-leaf reaches its parent, the root
    assert reverse.freq[b_parent] == 1
    # in Y's column the b-leaf stands for 0, and the root's 1 is the a-block's Y leaf
    assert (column.freq.tolist(), column.weight.tolist()) == brute_column(
        trie, record_parents(trie)[1], seqs[1].runs[:, 1]
    )
    assert column.freq[0] == 1 and column.weight[0] == 0


def hand_trie(parent, str_depth, run_parents, lengths, exact=False):
    """A one-symbol SymbolTrie from the internal nodes' parents and depths,
    and the parent of the leaf after each run of its one record and the
    run's length, the record's terminator's entries left out. Its limb runs
    are those the run's test flags (limb_tokens), or every run with exact."""
    parent = np.array(parent, dtype=np.int64)
    str_depth = np.array(str_depth, dtype=np.int64)
    run_parents = np.array(run_parents, dtype=np.int64)
    lengths = np.array(lengths, dtype=np.int64)
    return SymbolTrie(
        parent=parent,
        str_depth=str_depth,
        up=_lifting_rows(parent),
        run_parents=run_parents,
        syms=np.full(len(run_parents), FIRST_SYMBOL_ID, dtype=np.int64),
        lengths=lengths,
        bounds=np.array([0, len(run_parents) + 1]),
        symbols=FIRST_SYMBOL_ID + 1,
        limb_runs=(
            np.arange(len(run_parents)) if exact else limb_tokens(str_depth, run_parents, lengths)
        ),
    )


def runs_of(lengths):
    """(symbol, length) rows of hand_trie's one symbol."""
    return np.array([(FIRST_SYMBOL_ID, n) for n in lengths], dtype=np.int64).reshape(-1, 2)


def test_annotate_chain_recurrence():
    # hand-built chain: root -> v1(str 2) -> v2(str 7) with leaves giving
    # freq(v1) = 5 and freq(v2) = 3; the three leaves, two under v2 and one
    # under v1, follow second-sequence runs of lengths 3, 2 and 5
    # on int64 alone and with every node's limb weights too
    parent, str_depth = [-1, 0, 1], [0, 2, 7]
    for exact in (False, True):
        trie = hand_trie(parent, str_depth, [2, 2, 1], [3, 2, 5], exact)
        assert trie.limb_nodes.tolist() == ([0, 1, 2] if exact else [])
        column = annotate(trie, trie.run_parents, runs_of(trie.lengths))
        freq, weight = column.freq, column_weights(trie, column)
        assert freq[1] == 5
        assert freq[2] == 3
        assert weight[1] == 10  # 5 * (2 - 0)
        assert weight[2] == 25  # 10 + 3 * (7 - 2)
        assert (freq.tolist(), weight) == brute_column(trie, [2, 2, 1], [3, 2, 5])
        assert column.max_run.tolist() == [0, 0, 5]
        # a column with no leaves: zeros over the three internal nodes
        rev = annotate(trie, np.array([], dtype=np.int64), runs_of([]))
        assert rev.freq.tolist() == [0] * 3 and column_weights(trie, rev) == [0] * 3
        assert rev.max_run.tolist() == [0, 0, 0]
        # annotation reads the trie and leaves it as it was
        assert trie.parent.tolist() == parent and trie.str_depth.tolist() == str_depth


def test_annotate_root_holds_the_column_maximum_at_power_of_two_depth():
    # the internal node 4 sits 4 = 2^2 levels below the root, and the two
    # kept lifting rows reach 3 levels: without the root's own step the
    # root would keep only the shallow leaf's 1, pushed to it, and a climb
    # from that leaf's parent at threshold 5 would fall off the root
    # the weights' pointer doubling, on int64 and on limbs, takes the same two rows
    for exact in (False, True):
        trie = hand_trie([-1, 0, 1, 2, 3], [0, 1, 2, 3, 4], [4, 0], [5, 1], exact)
        assert trie.internal == 5 and len(trie.up) == 2 and len(trie.limb_up) == 2 * exact
        column = annotate(trie, trie.run_parents, runs_of(trie.lengths))
        # the leaves' 5 and 1 have moved to the brute reference
        assert (column.freq.tolist(), column_weights(trie, column)) == brute_column(
            trie, [4, 0], [5, 1]
        )
        assert column.freq.tolist() == [5, 5, 5, 5, 5]
        assert column_weights(trie, column) == [0, 5, 10, 15, 20]
        assert trie.climb(np.array([0, 4]), [5, 5], column.freq).tolist() == [0, 4]
        # the same chain with nothing beside it, as first found
        chain = hand_trie([-1, 0, 1, 2, 3], [0, 1, 2, 3, 4], [4], [5], exact)
        assert annotate(chain, chain.run_parents, runs_of(chain.lengths)).freq.tolist() == [5] * 5


@pytest.mark.parametrize("run", [3, 4])
def test_limb_column_weights_either_side_of_2_63(run):
    # both runs' leaves hang below 2^61, so the run's test flags both and
    # every node is a limb node, summed in annotate's limb loop; both
    # columns' weights pass 2^62, and for run 4 the column's longest run
    # times the deepest internal str_depth passes 2^63 as well, where the
    # int64 weights wrap (nodes 2 and 3 each hold one leaf, one level deeper)
    deep = (1 << 61) + 3
    trie = hand_trie([-1, 0, 1, 1], [0, 1 << 61, deep, deep], [2, 3], [run, 1])
    assert trie.limb_runs.tolist() == [0, 1] and trie.limb_nodes.tolist() == [0, 1, 2, 3]
    column = annotate(trie, trie.run_parents, runs_of(trie.lengths))
    assert column.limb_weight.shape == (2, trie.internal) == (2, 4)
    hi, lo = column.limb_weight
    assert ((lo >= 0) & (lo < 1 << LIMB_BITS)).all()
    want = [0, run << 61, (run << 61) + 3 * run, (run << 61) + 3]
    assert exact_ints(column.limb_weight) == column_weights(trie, column) == want
    assert (max(want) >= 1 << 63) == (run == 4)


# (depth[p], f, flagged) at the edges of the run's test: depth[p] + f =
# 2^31 - 1 passes it and 2^31 fails it, with the leaf on the root and deeper
LIMB_TEST_EDGES = [
    (0, (1 << 31) - 1, False),
    (0, 1 << 31, True),
    (1 << 30, (1 << 30) - 1, False),
    (1 << 30, 1 << 30, True),
]


@pytest.mark.parametrize("depth, f, flagged", LIMB_TEST_EDGES)
def test_limb_test_at_its_edges(depth, f, flagged):
    # a run of length f whose leaf hangs from p, the root at depth 0 and
    # else the one internal node, and a run of 1 under the root; the test
    # flags the first exactly when depth[p] + f >= 2^31, and only then is
    # part of the closed form's answer a limb array
    parent, str_depth, p = ([-1], [0], 0) if depth == 0 else ([-1, 0], [0, depth], 1)
    trie = hand_trie(parent, str_depth, [p, 0], [f, 1])
    assert trie.limb_runs.tolist() == ([0] if flagged else [])
    assert trie.limb_nodes.tolist() == (list(range(p + 1)) if flagged else [])
    column = annotate(trie, trie.run_parents, runs_of(trie.lengths))
    sums = _closed_form(trie, column)
    assert sums.shape == ((2,) if flagged else ()) + (2,)
    assert _closed_form(trie, column, slice(1, 2)).shape == (1,)
    # the column's own runs: g = f and u = v = p, so the first sums
    # f * depth + f * (f + 1) / 2, and the second 1
    assert exact_ints(sums) == [f * depth + f * (f + 1) // 2, 1]


def test_annotate_leaves_int64_columns():
    trie, seqs = build_query_trie("aabba", "abab")
    # every run flagged on the same pair: the same shape and int64 columns,
    # and limb weights of every internal node besides
    exact = extract_symbol_tries(*seqs, _exact=True)
    assert trie.limb_runs.size == trie.limb_nodes.size == 0 and trie.limb_up == ()
    assert exact.limb_runs.tolist() == list(range(len(exact.run_parents)))
    assert exact.limb_nodes.tolist() == list(range(exact.internal))
    columns = pair_columns(trie, seqs)
    exact_columns = pair_columns(exact, seqs)
    freqs = [column.freq for column in (*columns, *exact_columns)]
    for column in (trie.parent, trie.str_depth, trie.run_parents, *freqs, *trie.up):
        assert isinstance(column, np.ndarray) and column.dtype == np.int64
    # the columns and lifting rows cover the trie's nodes, all internal
    for column in (*freqs, *trie.up):
        assert len(column) == trie.internal
    for column in (*columns, *exact_columns):
        assert column.weight.dtype == np.int64 and column.weight.shape == (trie.internal,)
    for column in columns:
        assert column.limb_weight.shape == (2, 0)
    for column in (column.limb_weight for column in exact_columns):
        assert column.dtype == np.int64 and column.shape == (2, trie.internal)
        hi, lo = column
        assert (hi >= 0).all() and (lo >= 0).all() and (lo < 1 << LIMB_BITS).all()
    for int64, exact_column in zip(columns, exact_columns):
        assert int64.freq.tolist() == exact_column.freq.tolist()
        assert int64.weight.tolist() == exact_column.weight.tolist()
        assert int64.weight.tolist() == exact_ints(exact_column.limb_weight)
        assert int64.max_run.tolist() == exact_column.max_run.tolist()
        assert int64.max_run.dtype == np.int64 and len(int64.max_run) == trie.symbols
    # rows double until the next would map every internal node to the root
    # (node 0); this pair's internal nodes all hang from the root, so it has
    # none (test_lifting_rows_stop_before_the_all_root_row has rows)
    assert trie.up == () and not trie.parent[1:].any()


def test_lifting_rows_stop_before_the_all_root_row():
    # rows double until the next would map every internal node to the root
    # (node 0); the periodic pair's trie is one deep chain per symbol
    first, second = bench.periodic_pair(64)
    trie = AcsEngine(first, second).trie
    assert trie.internal == trie.node_count - 64
    assert all(row.shape == (trie.internal,) for row in trie.up)
    top = trie.up[-1]
    assert top.any() and not top[top].any()


def test_internal_nodes_without_lifting_rows():
    # "ab" against itself: the a-block's two leaves meet at "b", one level
    # under the root, and the b-block's two hang from the root, so every
    # internal node hangs from the root and there are no rows to read the
    # internal count from
    trie, seqs = build_query_trie("ab", "ab")
    assert trie.up == () and trie.internal == 2 and trie.node_count == 6
    for exact in (False, True):
        if exact:
            trie = extract_symbol_tries(*seqs, _exact=True)
        sides = ((1, seqs[1]), (0, seqs[0]))
        parents = record_parents(trie)
        for column, (j, seq) in zip(pair_columns(trie, seqs), sides):
            assert column.freq.tolist() == [1, 1]
            assert (column.freq.tolist(), column_weights(trie, column)) == brute_column(
                trie, parents[j], seq.runs[:, 1]
            )
        # a column with no leaves
        empty = annotate(trie, np.array([], dtype=np.int64), runs_of([]))
        assert empty.freq.tolist() == [0, 0] and column_weights(trie, empty) == [0, 0]
    # each run of X is answered from its leaf's parent: "a" then "b" match
    # two and one characters
    engine = AcsEngine(*seqs)
    assert engine.run_sums(0, engine.column(1)) == [2, 1]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_columns_match_the_brute_reference_on_random_families(k, exact):
    # every internal node's freq is the subtree maximum over the column's
    # leaves and its weight the root-path sum, with every run on limbs or none
    rng = random.Random(100 * k + exact)
    for _ in range(8):
        # some records lack a symbol that others have
        texts = [
            random_runny_text(rng, rng.randint(1, 60), rng.choice(("ab", "bc", "abc")), 6)
            for _ in range(k)
        ]
        seqs = [encode(text, f"s{j}") for j, text in enumerate(texts)]
        engine = AcsEngine(*seqs, _exact=exact)
        trie = engine.trie
        assert len(trie.limb_nodes) == (trie.internal if exact else 0)
        assert trie.internal == trie.node_count - sum(seq.run_count for seq in seqs)
        for j, seq in enumerate(seqs):
            column = engine.column(j)
            assert column.freq.shape == column.weight.shape == (trie.internal,)
            assert column.limb_weight.shape == (2, len(trie.limb_nodes))
            assert (column.freq.tolist(), column_weights(trie, column)) == brute_column(
                trie, trie.run_parents[trie.record(j)], seq.runs[:, 1]
            )


LIMB_EDGES = (0, 1, (1 << 31) - 1, 1 << 31, (1 << 62) - 1, 1 << 62)
limb_factors = st.lists(
    st.one_of(st.sampled_from(LIMB_EDGES), st.integers(0, 1 << 62)), min_size=1, max_size=40
)


@given(limb_factors, limb_factors)
@example(list(LIMB_EDGES), list(LIMB_EDGES))
@example(list(LIMB_EDGES), list(reversed(LIMB_EDGES)))
def test_limb_product_matches_python_ints(a, b):
    a, b = a[: len(b)], b[: len(a)]
    hi, lo = limb_product(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert exact_ints(np.stack((hi, lo))) == [x * y for x, y in zip(a, b)]
    assert ((lo >= 0) & (lo < 1 << LIMB_BITS)).all()
    # exact_total holds while the total stays below 2^124, as every run total does
    products = [x * y for x, y in zip(a, b)]
    k = max(k for k in range(len(products) + 1) if sum(products[:k]) < 1 << 124)
    assert exact_total(np.stack((hi[:k], lo[:k]))) == sum(products[:k])


@given(limb_factors, limb_factors, limb_factors, limb_factors)
@example(*[list(LIMB_EDGES)] * 4)
def test_limb_carry_adds_and_subtracts_exactly(a_hi, a_lo, b_hi, b_lo):
    # normalized limbs, hi below 2^62 and lo below 2^62, summed and subtracted
    # as _closed_form and annotate do, with one carry after each
    n = min(map(len, (a_hi, a_lo, b_hi, b_lo)))
    a = [(h & LIMB_MASK, l & LIMB_MASK) for h, l in zip(a_hi[:n], a_lo[:n])]
    b = [(h & LIMB_MASK, l & LIMB_MASK) for h, l in zip(b_hi[:n], b_lo[:n])]
    (ah, al), (bh, bl) = (np.array(x, dtype=np.int64).T for x in (a, b))
    value = [(h << LIMB_BITS) + l for h, l in a]
    other = [(h << LIMB_BITS) + l for h, l in b]
    added = np.stack(limb_carry(ah + bh, al + bl))
    assert exact_ints(added) == [x + y for x, y in zip(value, other)]
    taken = np.stack(limb_carry(ah - bh, al - bl))
    assert exact_ints(taken) == [x - y for x, y in zip(value, other)]
    for hi, lo in (added, taken):
        assert ((lo >= 0) & (lo < 1 << LIMB_BITS)).all()


def test_trie_is_immutable():
    trie, seqs = build_query_trie("aabba", "abab")
    exact = extract_symbol_tries(*seqs, _exact=True)
    rows = ("up", "limb_up", "symbols")
    columns = [
        getattr(record, f.name)
        for record in (trie, exact)
        for f in dataclasses.fields(record)
        if f.name not in rows
    ]
    annotations = [*pair_columns(trie, seqs), *pair_columns(exact, seqs)]
    for column in [*columns, *trie.up, *exact.limb_up]:
        with pytest.raises(ValueError, match="read-only"):
            column[..., :1] = 7
    for column in annotations:
        for array in (column.freq, column.weight, column.limb_weight, column.max_run):
            with pytest.raises(ValueError, match="read-only"):
                array[..., :1] = 7
    for record in (trie, exact, *annotations):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))


def test_trie_holds_no_leaf_rows():
    # every array of the trie covers the internal nodes, but run_parents
    # and the layout rows, one entry per token (a run or a terminator), and
    # the k + 1 token bounds; no array spans the leaves, and the build never
    # computes the order's suffix lengths
    orders = []

    def kept(*seqs):
        orders.append(build_suffix_order(*seqs))
        return orders[-1]

    seqs = [encode(text, f"s{j}") for j, text in enumerate(("aabbaab", "abab", "bbba"))]
    with mock.patch("rleacs.symbol_tries.build_suffix_order", kept):
        engine = AcsEngine(*seqs)
    trie = engine.trie
    runs = sum(seq.run_count for seq in seqs)
    assert trie.node_count == trie.internal + runs
    arrays = {f.name: getattr(trie, f.name) for f in dataclasses.fields(trie)}
    del arrays["symbols"]
    # within the int64 bound the trie flags no run
    assert arrays.pop("limb_runs").size == arrays.pop("limb_nodes").size == 0
    assert arrays.pop("limb_up") == ()
    for name in ("run_parents", "syms", "lengths"):
        assert arrays.pop(name).shape == (runs + len(seqs),)
    assert arrays.pop("bounds").tolist() == [0, 5, 10, 13]
    for array in (*arrays.pop("up"), *arrays.values()):
        assert array.shape == (trie.internal,)
    assert (trie.run_parents < trie.internal).all()
    assert "suffix_lengths" not in vars(orders[0])


def test_build_frees_the_order_and_keeps_its_layout():
    # the suffix order, rounds and all, is dead before the trie's first node
    # array is built; the trie holds the order's layout rows, not copies,
    # and the engine holds only the sequences and the trie
    seqs = [encode(text, f"s{j}") for j, text in enumerate(("aabbaab", "abab", "bbba"))]
    orders, layouts, alive = [], [], []

    def kept(*seqs):
        order = build_suffix_order(*seqs)
        orders.append(weakref.ref(order))
        layouts.append(order.syms.base)
        return order

    def compact(gaps):
        alive.append(orders[-1]() is not None)
        return _compact_trie(gaps)

    with (
        mock.patch.object(symbol_tries, "build_suffix_order", kept),
        mock.patch.object(symbol_tries, "_compact_trie", compact),
    ):
        engine = AcsEngine(*seqs)
    assert alive == [False]
    assert set(vars(engine)) == {"seqs", "trie"}
    trie = engine.trie
    for row in (trie.syms, trie.lengths):
        assert not row.flags.writeable
        assert np.shares_memory(row, layouts[0])
    k = len(seqs)
    for i in range(k):
        assert trie.record(i) == trie.record(i - k)


def test_concurrent_directions_match_serial_totals():
    # the forward and reverse directions share one trie; threads that total
    # them at once, switching every few microseconds, must see the serial totals
    rng = random.Random(23)
    x = random_runny_text(rng, 3000, "abcd", 6)
    y = random_runny_text(rng, 3000, "abcd", 6)
    first, second = make_pair(x, y)
    engine = AcsEngine(first, second)
    views = [(0, engine.column(1)), (1, engine.column(0))] * 2
    serial = [engine.total(*view) for view in views]
    got = [[] for _ in views]
    start = threading.Barrier(len(views))

    def work(k):
        start.wait()
        for _ in range(10):
            got[k].append(engine.total(*views[k]))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(views))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[total] * 10 for total in serial]


def test_deepest_ancestor_micro():
    trie, seqs = build_query_trie("aab", "ab")
    column, _ = pair_columns(trie, seqs)
    mid = leaf_parents(trie, seqs)[0]  # above X suffix "b<s1>"
    # root freq is only 1, so threshold 2 has no qualifying ancestor
    assert trie.climb(np.array([mid, mid]), [1, 2], column.freq).tolist() == [mid, -1]


def test_deepest_ancestor_none_without_y_leaves():
    # the b-block has no Y leaf; at threshold 1 the climb ends at the shared
    # root (str_depth 0, weight 0, as a b-only root would have), and above
    # the root's freq there is no qualifying ancestor
    trie, seqs = build_query_trie("aba", "a")
    column, _ = pair_columns(trie, seqs)
    above = leaf_parents(trie, seqs)[-1]
    assert trie.climb(np.array([above, above]), [1, 2], column.freq).tolist() == [0, -1]


def _walk_up_reference(parent, freq, v, threshold):
    answer = -1
    while v != -1:
        if freq[v] >= threshold:
            answer = v
            break  # deepest qualifying: freq is monotone, first hit wins
        v = parent[v]
    return answer


def test_searches_match_linear_walk_random():
    rng = random.Random(19)
    for _ in range(60):
        x = random_runny_text(rng, rng.randint(2, 80), "ab", 6)
        y = random_runny_text(rng, rng.randint(2, 80), "ab", 6)
        trie, seqs = build_query_trie(x, y)
        parent = trie.parent.tolist()
        for column in pair_columns(trie, seqs):
            freq = column.freq.tolist()
            # from every leaf's parent; thresholds run past the root's freq,
            # where no ancestor qualifies
            pairs = [(v, h) for v in leaf_parents(trie, seqs) for h in range(0, freq[0] + 3)]
            starts, thresholds = (np.array(values, dtype=np.int64) for values in zip(*pairs))
            got = trie.climb(starts, thresholds, column.freq).tolist()
            assert got == [_walk_up_reference(parent, freq, *pair) for pair in pairs]


def test_supported_matches_linear_walk_random():
    # every internal node's threshold-1 answer, against a walk up from it,
    # in pairs and in families of 3 to 5 records
    rng = random.Random(29)
    # a periodic record over a short one: long chains of nodes with freq 0
    families = [["ab" * 40, "ab" * 2], ["ab" * 40, "ab" * 2, "ba" * 7]]
    for trial in range(60):
        k = 2 if trial % 2 else rng.randint(3, 5)
        families.append([random_runny_text(rng, rng.randint(2, 60), "abc", 5) for _ in range(k)])
    for texts in families:
        k = len(texts)
        engine = AcsEngine(*(encode(text, f"s{j}") for j, text in enumerate(texts)))
        trie = engine.trie
        parent = trie.parent.tolist()
        for j in range(k):
            column = engine.column(j)
            freq = column.freq.tolist()
            walked = []
            for v in range(trie.internal):
                while v and freq[v] < 1:
                    v = parent[v]
                walked.append(v)
            assert column.supported.tolist() == walked
            # the climb from a node answers threshold 1 with its own entry
            nodes = np.arange(trie.internal, dtype=np.int64)
            assert trie.climb(nodes, 1, column.freq).tolist() == walked


@given(
    st.text(alphabet="ab", min_size=1, max_size=50),
    st.text(alphabet="ab", min_size=1, max_size=50),
)
def test_structural_invariants(x, y):
    engine = AcsEngine(*make_pair(x, y))
    order = build_suffix_order(*engine.seqs)
    columns = (engine.column(0), engine.column(1))
    assert _structural_checks(engine, columns, order) == []


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=30), min_size=2, max_size=4))
@example(["aab", "ab"])
def test_run_parents_are_the_sweeps_leaf_parents(texts):
    # each run's entry is the parent the sweep gives the leaf after it, the
    # two builds' nodes matched by leaf interval and depth
    seqs = [encode(text, f"s{j}") for j, text in enumerate(texts)]
    order = build_suffix_order(*seqs)
    tokens, gaps = leaf_blocks(order)
    trie = extract_symbol_tries(*seqs)
    depths = leaf_depths(order, tokens)

    def parent_keys(parent, str_depth, leaves):
        lo, hi = _leaf_intervals(parent, str_depth, leaves)
        return [(lo[parent[v]], hi[parent[v]], str_depth[parent[v]]) for v in leaves]

    reference = _sweep_compact_trie(depths, gaps.tolist())
    assert parent_keys(*_whole_trie(trie, tokens, depths)) == parent_keys(*reference)


def assert_sweep_shape(depths, gaps):
    """The array build over these leaves and gaps is the sweep's trie, node for node."""
    parent, str_depth, parents = _compact_trie(np.array(gaps, dtype=np.int64))
    assert parent.dtype == str_depth.dtype == parents.dtype == np.int64
    # the root first, then the internal nodes; one parent per leaf, in leaf order
    assert parent[0] == -1 and str_depth[0] == 0
    assert len(parents) == len(depths) and parents.max() < len(parent)
    assert len(parent) <= len(depths)
    # leaf k is node len(parent) + k
    leaves = list(range(len(parent), len(parent) + len(depths)))
    parent, str_depth = parent.tolist() + parents.tolist(), str_depth.tolist() + depths
    reference = _sweep_compact_trie(depths, gaps)
    assert len(parent) == len(reference[0])
    assert _keyed_shape(parent, str_depth, leaves) == _keyed_shape(*reference)


@st.composite
def leaves_over(draw, gaps):
    """(depths, gaps): the drawn gaps, each leaf deeper than both of its gaps."""
    gaps = draw(gaps)
    edges = [0, *gaps, 0]
    extra = draw(st.lists(st.integers(0, 3), min_size=len(edges) - 1, max_size=len(edges) - 1))
    return [max(a, b) + 1 + e for a, b, e in zip(edges, edges[1:], extra)], gaps


gap_value = st.one_of(st.integers(0, 9), st.integers(0, 1 << 61))
# gaps at and past the order codes' limit 2^30, int32's 2^31 and the length
# bound 2^62, between small ones
WIDE_GAPS = [v + d for v in (1 << 30, 1 << 31, 1 << 62) for d in (-1, 0, 1)]
wide_gaps = st.lists(
    st.one_of(st.integers(0, 6), st.sampled_from(WIDE_GAPS), st.integers(0, 1 << 62)),
    max_size=80,
)
steps = st.lists(st.integers(1, 4), max_size=60)
rising = st.tuples(st.integers(0, 5), steps).map(lambda t: list(accumulate(t[1], initial=t[0]))[1:])


@given(
    st.one_of(
        leaves_over(st.tuples(gap_value, st.integers(0, 60)).map(lambda t: [t[0]] * t[1])),
        leaves_over(rising),
        leaves_over(rising.map(lambda gaps: gaps[::-1])),
        # zero gaps between blocks, and at either end when a block is empty
        leaves_over(
            st.lists(st.lists(st.integers(1, 4), max_size=8), min_size=1, max_size=6).map(
                lambda blocks: [g for block in blocks for g in (0, *block)][1:]
            )
        ),
        leaves_over(st.lists(st.integers(0, 6), max_size=80)),
        leaves_over(wide_gaps),
    )
)
@example(([5], []))
@example(([3, 3], [2]))
@example(([1, 1], [0]))
def test_array_build_matches_the_sweep(leaves):
    assert_sweep_shape(*leaves)


@given(
    leaves_over(
        st.tuples(
            st.integers(JUMP_ROUNDS + 2, 80), st.sampled_from([0, (1 << 31) - 40, 1 << 62])
        ).map(lambda t: list(range(t[1] + 1, t[1] + t[0] + 1)) + [0])
    )
)
def test_array_build_falls_back_to_the_descent(leaves):
    # the final 0's previous gap <= it is one step nearer per jumping round,
    # so JUMP_ROUNDS cannot reach it and the sparse-table descent must; the
    # rising gaps may start past 2^30, cross 2^31 or sit past 2^62, where
    # the descent reads their int32 codes
    with mock.patch.object(symbol_tries, "_descend", wraps=symbol_tries._descend) as descend:
        assert_sweep_shape(*leaves)
    assert any(len(call.args[1]) for call in descend.call_args_list)


@pytest.mark.parametrize("make", [bench.periodic_pair, bench.fibonacci_pair])
def test_array_build_matches_the_sweep_on_adversarial_pairs(make):
    seqs = make(1 << 14)
    order = build_suffix_order(*seqs)
    tokens, gaps = leaf_blocks(order)
    trie = extract_symbol_tries(*seqs)
    depths = leaf_depths(order, tokens)
    shape = _whole_trie(trie, tokens, depths)
    assert _sweep_mismatches("trie", *shape, depths, gaps.tolist()) == []
