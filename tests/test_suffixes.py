import os
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import at_bound, make_pair, random_runny_text
from rleacs.oracle import (
    SuffixRef,
    brute_suffix_sort,
    suffix_compare,
    suffix_lcp,
    suffix_refs,
    suffix_runs,
)
from rleacs import suffixes
from rleacs.bench import fibonacci_pair, mutant_family, periodic_pair, synth_pair
from rleacs.rle import FIRST_SYMBOL_ID, MAX_DECODED_LENGTH, RleSeq, encode
from rleacs.suffixes import (
    _dense_rank,
    _token_columns,
    _value_sort,
    build_suffix_order,
    token_bounds,
    token_string,
)
from rleacs.symbol_tries import annotate, extract_symbol_tries, leaf_blocks
from rleacs.verify import brute_column, random_text


def test_order_micro_pair():
    first, second = make_pair("aab", "ab")
    order = build_suffix_order(first, second)
    assert suffix_refs(order) == [
        SuffixRef(0, 3),
        SuffixRef(1, 3),
        SuffixRef(0, 1),
        SuffixRef(1, 1),
        SuffixRef(0, 2),
        SuffixRef(1, 2),
    ]
    assert order.dlcp.tolist() == [0, 0, 1, 0, 1]
    assert order.suffix_lengths.tolist() == [1, 1, 4, 3, 2, 2]


def test_order_single_symbol_pair():
    first, second = make_pair("a", "a")
    order = build_suffix_order(first, second)
    assert suffix_refs(order) == [
        SuffixRef(0, 2),
        SuffixRef(1, 2),
        SuffixRef(0, 1),
        SuffixRef(1, 1),
    ]
    assert order.dlcp.tolist() == [0, 0, 1]


def test_order_counts_run_starts_only():
    # a single 4-long run contributes two suffixes, not four
    first, second = make_pair("aaaa", "b")
    order = build_suffix_order(first, second)
    assert len(order) == 4
    assert sorted(suffix_refs(order)) == [
        SuffixRef(0, 1),
        SuffixRef(0, 2),
        SuffixRef(1, 1),
        SuffixRef(1, 2),
    ]


def test_order_matches_brute_on_kasai_equality_regression():
    # Adjacent same-symbol runs that differ in group and length: if the
    # descent's round 0 compared coarser (symbol, length) pairs in place of
    # token keys, it would count a shared token across this boundary and
    # report dlcp 3 instead of 2.
    first, second = make_pair("ABBDBBBAD", "ABBAD")
    fast = build_suffix_order(first, second)
    brute = brute_suffix_sort(first, second)
    assert suffix_refs(fast) == suffix_refs(brute)
    assert np.array_equal(fast.dlcp, brute.dlcp)
    assert np.array_equal(fast.suffix_lengths, brute.suffix_lengths)
    # the two suffixes in question: X run 2 ("BBDBBBAD...") and X run 4 ("BBBAD...")
    refs = suffix_refs(fast)
    k = refs.index(SuffixRef(0, 4))
    assert refs[k + 1] == SuffixRef(0, 2)
    assert fast.dlcp[k] == 2


def test_compare_decoded_order_cases():
    first, second = make_pair("aab", "ab")
    # "aab<s>" < "ab<s>" by the decoded character at position 2
    assert suffix_compare(first, second, SuffixRef(0, 1), SuffixRef(1, 1)) == -1
    # "b<s1>" < "b<s2>" by terminator order
    assert suffix_compare(first, second, SuffixRef(0, 2), SuffixRef(1, 2)) == -1
    assert suffix_compare(first, second, SuffixRef(1, 1), SuffixRef(0, 1)) == 1
    assert suffix_compare(first, second, SuffixRef(0, 1), SuffixRef(0, 1)) == 0


def test_compare_shorter_run_smaller_when_next_symbol_smaller():
    # 'A' < 'a', so "aA..." sorts before "aaA..."
    first, second = make_pair("aA", "aaA")
    assert suffix_compare(first, second, SuffixRef(0, 1), SuffixRef(1, 1)) == -1


@given(
    st.text(alphabet="abc", min_size=1, max_size=12),
    st.text(alphabet="abc", min_size=1, max_size=12),
)
def test_run_walker_matches_decoded_suffixes(x, y):
    # every pair of run-start suffixes, each with itself too; a suffix's
    # decoded text ends in its side's terminator, chr(0) or chr(1)
    first, second = make_pair(x, y)
    texts = {}
    for j, seq in enumerate((first, second)):
        text = (x, y)[j] + chr(j)
        for run, start in enumerate(accumulate(seq.runs[:, 1].tolist(), initial=0), 1):
            texts[SuffixRef(j, run)] = text[start:]
    for a, text_a in texts.items():
        for b, text_b in texts.items():
            assert suffix_lcp(first, second, a, b) == len(os.path.commonprefix([text_a, text_b]))
            assert suffix_compare(first, second, a, b) == (text_a > text_b) - (text_a < text_b)


def test_lcp_run_walk_cases():
    first, second = make_pair("aab", "ab")
    assert suffix_lcp(first, second, SuffixRef(0, 1), SuffixRef(1, 1)) == 1
    a3 = RleSeq("a3", [(2, 3)])
    a5 = RleSeq("a5", [(2, 5)])
    assert suffix_lcp(a3, a5, SuffixRef(0, 1), SuffixRef(1, 1)) == 3
    first, second = make_pair("aab", "aab")
    assert suffix_lcp(first, second, SuffixRef(0, 1), SuffixRef(1, 1)) == 3


def test_longest_run_table():
    # ids are codepoints plus FIRST_SYMBOL_ID; a column's table is indexed
    # by symbol id and reaches x, which only the first sequence has
    first, second = make_pair("x", "ab")
    trie = extract_symbol_tries(leaf_blocks(build_suffix_order(first, second)))
    assert trie.symbols == ord("x") + FIRST_SYMBOL_ID + 1
    table = annotate(trie, trie.run_parents[first.run_count :], second.runs).max_run
    assert len(table) == trie.symbols
    assert {k: n for k, n in enumerate(table.tolist()) if n} == {
        ord("a") + FIRST_SYMBOL_ID: 1,
        ord("b") + FIRST_SYMBOL_ID: 1,
    }
    first, second = make_pair("x", "aabbba")
    trie = extract_symbol_tries(leaf_blocks(build_suffix_order(first, second)))
    table = annotate(trie, trie.run_parents[first.run_count :], second.runs).max_run
    a_id, b_id = second.runs[:2, 0].tolist()
    assert (table[a_id], table[b_id]) == (2, 3)
    assert table[first.runs[0, 0]] == 0


def test_trie_micro_pair():
    first, second = make_pair("aab", "ab")
    order = build_suffix_order(first, second)
    # query trie leaves: the a-block (X suffix "b<s1>", Y suffix "b<s2>"),
    # then the b-block (X and Y terminator suffixes); the whole-X and whole-Y
    # suffixes (ranks 2 and 3) have no preceding run
    blocks = leaf_blocks(order)
    query = extract_symbol_tries(blocks)
    assert np.argsort(order.tokens)[blocks.tokens].tolist() == [4, 5, 0, 1]
    first_parents, second_parents = np.split(query.run_parents, [first.run_count])
    freq = annotate(query, second_parents, second.runs).freq
    rev_freq = annotate(query, first_parents, first.runs).freq
    # the leaves stand for their preceding runs' lengths, Y's in freq and
    # X's in rev_freq, and the internal nodes hold the subtree maxima
    parents = query.run_parents[blocks.runs]
    assert freq.tolist() == brute_column(query, parents, [0, 1, 0, 1])[0]
    assert rev_freq.tolist() == brute_column(query, parents, [2, 0, 1, 0])[0]


def _assert_order_matches_brute(x, y):
    first, second = make_pair(x, y)
    fast = build_suffix_order(first, second)
    brute = brute_suffix_sort(first, second)
    assert suffix_refs(fast) == suffix_refs(brute)
    assert np.array_equal(fast.dlcp, brute.dlcp)
    assert np.array_equal(fast.suffix_lengths, brute.suffix_lengths)


@settings(max_examples=300)
@given(
    st.text(alphabet="ab", min_size=1, max_size=60),
    st.text(alphabet="ab", min_size=1, max_size=60),
)
# a periodic pair shares hundreds of tokens, so the lcp descent starts from
# round 10 of 11; the random draws stop near round 6
@example("ab" * 400, "ab" * 300 + "a")
def test_order_matches_brute_binary_alphabet(x, y):
    _assert_order_matches_brute(x, y)


@given(
    st.text(alphabet="abcd", min_size=1, max_size=80),
    st.text(alphabet="abcd", min_size=1, max_size=80),
)
def test_order_matches_brute_wider_alphabet(x, y):
    _assert_order_matches_brute(x, y)


@given(
    st.lists(
        st.tuples(st.sampled_from("ab"), st.integers(min_value=1, max_value=7)),
        min_size=1,
        max_size=15,
    ),
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=7)),
        min_size=1,
        max_size=15,
    ),
)
def test_order_matches_brute_long_runs(x_pairs, y_pairs):
    x = "".join(ch * k for ch, k in x_pairs)
    y = "".join(ch * k for ch, k in y_pairs)
    _assert_order_matches_brute(x, y)


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=25), min_size=1, max_size=5))
# repeated records tie on content and differ only in their terminators
@example(["ab", "cab", "ab", "b", "ab"])
def test_family_order_matches_decoded_sort(texts):
    seqs = [encode(text, f"s{j}") for j, text in enumerate(texts)]
    order = build_suffix_order(*seqs)
    brute = brute_suffix_sort(*seqs)
    assert np.array_equal(order.tokens, brute.tokens)
    assert np.array_equal(order.dlcp, brute.dlcp)
    assert np.array_equal(order.suffix_lengths, brute.suffix_lengths)
    # the terminators are j + 2 - k: a pair keeps ids 0 and 1
    k = len(seqs)
    ends = token_bounds(seqs)[1:] - 1
    assert token_string(*seqs)[ends].tolist() == [[j + 2 - k, 1] for j in range(k)]


def _assert_order_agrees_with_run_walk(first, second):
    order = build_suffix_order(first, second)
    refs = suffix_refs(order)
    for k in range(len(order) - 1):
        a, b = refs[k], refs[k + 1]
        assert suffix_compare(first, second, a, b) == -1
        assert order.dlcp[k] == suffix_lcp(first, second, a, b)
    for k, ref in enumerate(refs):
        runs = suffix_runs(first, second, ref)
        assert order.suffix_lengths[k] == sum(length for _, length in runs)


def test_order_with_huge_runs_agrees_with_run_walk():
    # decoded lengths near 10^9 per run, and the same bodies stretched to
    # content length 2^62 - 1: unreachable for the brute oracle, so validate
    # the order pairwise with the run-walking comparator instead
    rng = random.Random(11)
    for _ in range(20):
        def random_runs():
            count = rng.randint(1, 8)
            runs = []
            prev = None
            for _ in range(count):
                sym = rng.choice([2, 3, 4])
                while sym == prev:
                    sym = rng.choice([2, 3, 4])
                runs.append((sym, rng.choice([1, 2, 10**9, 10**9 + 1])))
                prev = sym
            return runs

        x_body = random_runs()
        y_body = random_runs()
        _assert_order_agrees_with_run_walk(
            RleSeq("s", x_body),
            RleSeq("s", y_body),
        )
        first = at_bound(x_body)
        second = at_bound(y_body)
        assert first.content_length == second.content_length == MAX_DECODED_LENGTH - 1
        _assert_order_agrees_with_run_walk(first, second)


@pytest.mark.parametrize("make", [periodic_pair, fibonacci_pair])
def test_doubling_on_adversarial_pairs(make):
    # small sizes against the brute sort of the decoded suffixes
    for total_runs in (2, 3, 5, 8, 13, 34):
        first, second = make(total_runs, 3)
        order = build_suffix_order(first, second)
        brute = brute_suffix_sort(first, second)
        assert np.array_equal(order.tokens, brute.tokens)
        assert np.array_equal(order.dlcp, brute.dlcp)
        assert np.array_equal(order.suffix_lengths, brute.suffix_lengths)
    # at 2^12 runs the doubling takes a round per power of two; its rounds
    # are checked in test_doubling_equals_argsort_doubling
    assert len(build_suffix_order(*make(1 << 12)).rounds) >= 12


def _lexsort_rank(columns):
    """Dense ranks of row tuples by np.lexsort over the columns as given."""
    idx = np.lexsort(columns[::-1])
    bump = np.zeros(len(idx), dtype=np.int64)
    for col in columns:
        ordered = col[idx]
        bump[1:] |= ordered[1:] != ordered[:-1]
    rank = np.empty(len(idx), dtype=np.int64)
    rank[idx] = np.cumsum(bump)
    return rank


@pytest.mark.parametrize("span", [(1 << 16) - 1, 1 << 16])
def test_dense_rank_narrows_only_short_spans(span, monkeypatch):
    # a column spanning 2^16 - 1 enters the key as a 16-bit offset, one
    # spanning 2^16 as a 17-bit one, each beside the 3 bits of a column
    # spanning 6, in one value sort; negative entries stand for the
    # terminator ids of families with k > 2
    rng = np.random.default_rng(span)
    n = 4000
    sorts = []
    value_sort = suffixes._value_sort

    def spy(key, bits):
        sorts.append(bits)
        return value_sort(key, bits)

    monkeypatch.setattr(suffixes, "_value_sort", spy)
    for low in (0, -3, -(span // 2)):
        wide = rng.choice([low, low + 1, low + span // 2, low + span], size=n)
        small = rng.choice([-3, 0, 1, 3], size=n)
        for columns in ([wide, small], [small, wide]):
            sorts.clear()
            assert np.array_equal(_dense_rank(columns), _lexsort_rank(columns))
            assert sorts == [span.bit_length() + 3]


def test_dense_rank_matches_lexsort(monkeypatch):
    # every column enters as its offset from its minimum, a wide one in
    # parts around a re-rank; negative entries stand for the terminator ids
    # of families with k > 2, and a signed column at +-2^62 spans past int64
    rng = np.random.default_rng(5)
    n = 4000
    for low in (0, -3, -(1 << 40)):
        narrow = rng.choice([low, low + 1, low + 7, low + n - 1], size=n)
        wide = rng.choice([low, low + 1, low + n, low + (1 << 50)], size=n)
        small = rng.integers(-3, 4, size=n)
        signed = rng.choice([-(1 << 62), -1, 0, 5, 1 << 62], size=n)
        for columns in (
            [narrow],
            [np.full(n, low)],
            [np.full(n, low), small],
            [signed],
            [wide, small],
            [small, signed, wide],
            [signed, narrow, signed],
        ):
            assert np.array_equal(_dense_rank(columns), _lexsort_rank(columns))
    # three columns of 70,000 values each over 90,000 rows, the index and
    # the first and third codes 17 bits each, the second code 37: the key
    # fills its 46 bits with the first code and the second's top 29, is
    # re-ranked, and takes the second's last 8 bits and the third code
    sorts = []
    value_sort = suffixes._value_sort

    def spy(key, bits):
        sorts.append(bits)
        return value_sort(key, bits)

    monkeypatch.setattr(suffixes, "_value_sort", spy)
    n = 90_000
    columns = [rng.permutation(np.arange(n) % 70_000) for _ in range(3)]
    columns[1] = columns[1] * 1_000_003 - (1 << 61)
    assert np.array_equal(_dense_rank(columns), _lexsort_rank(columns))
    assert sorts == [46, 42]


@pytest.mark.parametrize("n", [2, 3, 1000, 1 << 12])
def test_value_sort_equals_argsort(n):
    # keys of bits bits and b = n.bit_length() indices: a value sort up to
    # bits + b = 63, keys at its top value included, and an argsort past it
    rng = np.random.default_rng(n)
    b = n.bit_length()
    for bits in (0, 1, 20, 63 - b, 64 - b, 63):
        for key in (
            rng.integers(0, 1 << bits, size=n, dtype=np.int64),
            # many ties, and the largest key the width allows
            rng.choice([0, (1 << bits) - 1], size=n).astype(np.int64),
        ):
            sorted_key, order = _value_sort(key.copy(), bits)
            argsort = np.argsort(key)
            assert np.array_equal(sorted_key, key[argsort])
            assert np.array_equal(key[order], sorted_key)
            assert np.array_equal(np.sort(order), np.arange(n))
            if bits + b <= 63:
                # the index rides in the key, so ties keep their index order
                assert np.array_equal(order, np.argsort(key, kind="stable"))


def _argsort_doubling(rank0):
    """Rounds of prefix doubling with one argsort per round, by the key
    rank * (n + 1) + shifted + 1."""
    n = len(rank0)
    rounds = [rank0]
    step = 1
    while rounds[-1].max() != n - 1:
        key = rounds[-1] * (n + 1)
        key[: n - step] += rounds[-1][step:] + 1
        idx = np.argsort(key)
        bump = np.zeros(n, dtype=np.int64)
        bump[1:] = key[idx][1:] != key[idx][:-1]
        rank = np.empty(n, dtype=np.int64)
        rank[idx] = np.cumsum(bump)
        rounds.append(rank)
        step *= 2
    return rounds


@pytest.mark.parametrize("n", [(1 << 21) - 1, 1 << 21])
def test_doubling_at_the_value_sort_bound(n):
    # a round's key takes 2b bits and its index b, b = n.bit_length():
    # 63 bits in all just below 2^21 tokens, where the largest key is
    # (n - 2) << b | n - 1, and an argsort from 2^21 on. The last two
    # tokens tie in rank0, and one round puts the last, the shorter
    # suffix, first
    rank0 = np.minimum(np.arange(n), n - 2)
    rounds = suffixes._prefix_double(rank0)
    assert len(rounds) == 2
    expected = np.arange(n)
    expected[-2:] = n - 1, n - 2
    assert np.array_equal(rounds[1], expected)


@pytest.mark.parametrize(
    "seqs",
    [
        synth_pair(1 << 12, 8, 3),
        synth_pair(3000, 10**9, 4, alphabet_size=50),
        periodic_pair(1 << 12),
        fibonacci_pair(1 << 12),
        mutant_family(12),
    ],
    ids=["random", "random-wide", "periodic", "fibonacci", "mutants"],
)
def test_doubling_equals_argsort_doubling(seqs):
    # the rounds and the order, from a rank0 and a doubling that share no
    # code with the build's value sorts
    order = build_suffix_order(*seqs)
    syms, groups, signed, nexts, _ = _token_columns(seqs, token_bounds(seqs))
    rounds = _argsort_doubling(_lexsort_rank([syms, groups, signed, nexts]))
    assert len(order.rounds) == len(rounds)
    for got, want in zip(order.rounds, rounds):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    assert np.array_equal(order.tokens, np.argsort(rounds[-1]))


def test_order_with_symbol_ids_past_2_16_matches_brute():
    # ids this far apart leave (sym, group) wider than a uint16 offset
    rng = random.Random(31)
    ids = [2, 3, 40_000, (1 << 16) + 1, 0x10FFFF]
    for _ in range(30):
        def random_runs():
            runs = []
            for _ in range(rng.randint(1, 12)):
                sym = rng.choice([s for s in ids if not runs or s != runs[-1][0]])
                runs.append((sym, rng.randint(1, 4)))
            return runs

        first, second = RleSeq("s", random_runs()), RleSeq("t", random_runs())
        order = build_suffix_order(first, second)
        brute = brute_suffix_sort(first, second)
        assert np.array_equal(order.tokens, brute.tokens)
        assert np.array_equal(order.dlcp, brute.dlcp)
        assert np.array_equal(order.suffix_lengths, brute.suffix_lengths)


def _block_neighbor_ranks(order):
    """Rank pairs (lo, hi) of the query trie's neighbor leaves in one block.

    The leaves are the ranks whose suffix follows a run (every token but the
    sequence starts), stably sorted by that run's symbol, so ranks ascend
    inside each block; a pair is two consecutive leaves of one block.
    """
    syms = token_string(*order.seqs)[:, 0].tolist()
    starts = set(token_bounds(order.seqs)[:-1].tolist())
    tokens = order.tokens.tolist()
    leaves = sorted(
        (k for k, t in enumerate(tokens) if t not in starts),
        key=lambda k: syms[tokens[k] - 1],
    )
    return [
        (lo, hi)
        for lo, hi in zip(leaves, leaves[1:])
        if syms[tokens[lo] - 1] == syms[tokens[hi] - 1]
    ]


def _assert_block_gaps_are_interval_mins(seqs):
    """Check every in-block gap against the neighbor lcps; returns how many."""
    order = build_suffix_order(*seqs)
    # the neighbor lcps the law reads are the decoded sort's
    assert np.array_equal(order.dlcp, brute_suffix_sort(*seqs).dlcp)
    pairs = np.array(_block_neighbor_ranks(order), dtype=np.int64).reshape(-1, 2)
    gaps = order.lcp(order.tokens[pairs[:, 0]], order.tokens[pairs[:, 1]]).tolist()
    assert gaps == [int(order.dlcp[lo:hi].min()) for lo, hi in pairs.tolist()]
    return len(pairs)


def test_block_gaps_are_interval_mins_random_families():
    # each in-block gap the query trie takes from order.lcp is the min of
    # the neighbor lcps over the ranks between its two leaves
    rng = random.Random(23)
    pairs_seen = 0
    for _ in range(200):
        k = rng.randint(2, 5)
        size = rng.randint(1, 3)
        texts = [random_text(rng, rng.randint(1, 40), size, 2.0) for _ in range(k)]
        seqs = [encode(text, f"s{j}") for j, text in enumerate(texts)]
        pairs_seen += _assert_block_gaps_are_interval_mins(seqs)
    assert pairs_seen > 1000


@pytest.mark.parametrize("make", [periodic_pair, fibonacci_pair])
def test_block_gaps_are_interval_mins_adversarial(make):
    for total_runs in (2, 3, 5, 8, 13, 34, 89):
        _assert_block_gaps_are_interval_mins(make(total_runs, 3))


def test_lcp_of_any_two_suffixes_matches_run_walk():
    # arbitrary rank pairs, mostly far apart, with ordinary and huge runs
    rng = random.Random(29)
    for trial in range(60):
        if trial % 3 == 2:
            # runs of 1 or 2 and near 10^9 over three symbols, first runs
            # stretched to content length 2^62 - 1
            first, second = (
                at_bound([(sym, rng.choice([1, 2, 10**9, 10**9 + 1])) for sym in syms])
                for syms in ([2, 3, 2, 4], [3, 2, 4, 2, 3])
            )
        else:
            x = random_runny_text(rng, rng.randint(1, 50), "ab", 5)
            y = random_runny_text(rng, rng.randint(1, 50), "abc", 5)
            first, second = make_pair(x, y)
        order = build_suffix_order(first, second)
        refs = suffix_refs(order)
        n = len(order)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(min(40, n * (n - 1)))]
        a, b = (np.array(side, dtype=np.int64) for side in zip(*pairs))
        got = order.lcp(order.tokens[a], order.tokens[b]).tolist()
        assert got == [suffix_lcp(first, second, refs[i], refs[j]) for i, j in pairs]
