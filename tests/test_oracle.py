from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_pair
from rleacs.oracle import (
    OracleBudget,
    SuffixRef,
    _lcp,
    _scan_match_lengths,
    brute_acs,
    brute_match_lengths,
    brute_suffix_sort,
    run_walk_total,
    suffix_refs,
)


def test_match_lengths_micro():
    assert brute_match_lengths("aab", "ab") == [1, 2, 1]
    assert brute_match_lengths("ab", "aab") == [2, 1]


def test_match_lengths_disjoint_and_identical():
    assert brute_match_lengths("b", "a") == [0]
    assert brute_match_lengths("aa", "aa") == [2, 1]
    assert brute_match_lengths("ab", "cd") == [0, 0]


def test_match_lengths_unary():
    assert brute_match_lengths("a" * 9, "a" * 3) == [3, 3, 3, 3, 3, 3, 3, 2, 1]


def test_acs_micro():
    assert brute_acs("aab", "ab") == Fraction(4, 3)
    assert brute_acs("ab", "aab") == Fraction(3, 2)
    assert brute_acs("a" * 9, "a" * 3) == Fraction(8, 3)


def test_acs_self_matches_closed_form():
    for text in ("a", "ab", "aab", "mississippi"):
        assert brute_acs(text, text) == Fraction(len(text) + 1, 2)


def test_budget_enforced():
    small = OracleBudget(max_len=4, max_pair_product=12)
    with pytest.raises(ValueError, match="budget exceeded"):
        brute_match_lengths("aaaaa", "aa", small)
    with pytest.raises(ValueError, match="budget exceeded"):
        brute_match_lengths("aaaa", "aaaa", small)
    assert brute_match_lengths("aaa", "aaaa", OracleBudget(max_len=4)) == [3, 2, 1]


@given(
    st.text(alphabet="ab", min_size=0, max_size=40),
    st.text(alphabet="ab", min_size=0, max_size=40),
)
def test_dp_agrees_with_literal_scan(x, y):
    assert brute_match_lengths(x, y) == _scan_match_lengths(x, y)


@given(
    st.text(alphabet="abc", min_size=1, max_size=60),
    st.text(alphabet="abc", min_size=1, max_size=60),
)
def test_acs_times_x_is_integral(x, y):
    value = brute_acs(x, y)
    assert value * len(x) == sum(brute_match_lengths(x, y))


def test_lcp_helper():
    assert _lcp("", "a") == 0
    assert _lcp("ba", "ab") == 0
    assert _lcp("aab", "aac") == 2
    assert _lcp("aab", "aab") == 3
    assert _lcp("a" * 500 + "b", "a" * 500 + "c") == 500


@given(
    st.text(alphabet="ab", min_size=0, max_size=70),
    st.text(alphabet="ab", min_size=0, max_size=70),
)
def test_lcp_agrees_with_character_scan(a, b):
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    assert _lcp(a, b) == k


def test_suffix_sort_micro():
    first, second = make_pair("aab", "ab")
    order = brute_suffix_sort(first, second)
    assert suffix_refs(order) == [
        SuffixRef(0, 3),  # terminator of X
        SuffixRef(1, 3),  # terminator of Y
        SuffixRef(0, 1),  # aab + terminator
        SuffixRef(1, 1),  # ab + terminator
        SuffixRef(0, 2),  # b + terminator of X
        SuffixRef(1, 2),  # b + terminator of Y
    ]
    assert order.dlcp.tolist() == [0, 0, 1, 0, 1]
    assert order.suffix_lengths.tolist() == [1, 1, 4, 3, 2, 2]


def test_suffix_sort_single_run_pair():
    first, second = make_pair("a", "a")
    order = brute_suffix_sort(first, second)
    assert suffix_refs(order) == [
        SuffixRef(0, 2),
        SuffixRef(1, 2),
        SuffixRef(0, 1),
        SuffixRef(1, 1),
    ]
    assert order.dlcp.tolist() == [0, 0, 1]


def test_suffix_sort_equal_content_interleaves():
    first, second = make_pair("abab", "abab")
    order = brute_suffix_sort(first, second)
    # equal decoded suffixes differ only in the final terminator, so each X
    # suffix sits immediately before its Y twin
    refs = suffix_refs(order)
    for k in range(0, len(refs), 2):
        a, b = refs[k], refs[k + 1]
        assert (a.seq, b.seq) == (0, 1)
        assert a.run == b.run


def test_run_walk_total_micro():
    first, second = make_pair("aab", "ab")
    assert run_walk_total(first, second) == 4
    assert run_walk_total(second, first) == 3
    first, second = make_pair("a" * 9, "a" * 3)
    assert run_walk_total(first, second) == 24
    first, second = make_pair("ab", "cd")
    assert run_walk_total(first, second) == 0


@given(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=6)),
        min_size=1,
        max_size=10,
    ),
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=6)),
        min_size=1,
        max_size=10,
    ),
)
def test_run_walk_total_matches_brute(x_pairs, y_pairs):
    x = "".join(ch * k for ch, k in x_pairs)
    y = "".join(ch * k for ch, k in y_pairs)
    first, second = make_pair(x, y)
    assert run_walk_total(first, second) == sum(brute_match_lengths(x, y))
    assert run_walk_total(second, first) == sum(brute_match_lengths(y, x))
