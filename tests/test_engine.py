import math
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rleacs.engine
from conftest import at_bound, make_pair, random_runny_text
from rleacs.engine import (
    AcsEngine,
    _closed_form,
    acs,
    acs_self,
    dist,
    dist_matrix,
    dist_value,
)
from rleacs.oracle import (
    SuffixRef,
    brute_acs,
    brute_match_lengths,
    per_position_lengths,
    reference_dist,
    reference_float,
    run_walk_total,
    suffix_refs,
)
from rleacs.rle import (
    FIRST_SYMBOL_ID,
    MAX_DECODED_LENGTH,
    RleSeq,
    encode,
)
from rleacs.suffixes import _token_columns, build_suffix_order, token_bounds, token_string
from rleacs.symbol_tries import exact_ints, extract_symbol_tries, leaf_blocks
from rleacs.verify import brute_column, check_pair


def engine_for(x, y):
    first, second = make_pair(x, y)
    return AcsEngine(first, second), first, second


def pair_totals(engine):
    """ACS(X,Y) and ACS(Y,X) totals of a pair's engine, one column each."""
    return engine.total(0, engine.column(1)), engine.total(1, engine.column(0))


def forward_positions(engine, **kwargs):
    return per_position_lengths(engine, 0, engine.column(1), **kwargs)


def test_run_sums_micro():
    engine, _, _ = engine_for("aab", "ab")
    column = engine.column(1)
    assert engine.run_sums(0, column) == [3, 1]
    assert engine.total(0, column) == 4
    assert engine.run_sums(1, engine.column(0)) == [2, 1]
    # 2 and -3 name no sequence of the pair
    for i in (2, -3):
        with pytest.raises(IndexError):
            engine.run_sums(i, column)
        with pytest.raises(IndexError):
            engine.column(i)


def test_run_leaves_follow_each_run():
    engine, first, second = engine_for("aab", "abab")
    # the token string holds every run and the two terminators; all its
    # suffixes but the two sequence starts follow a run and have a leaf
    assert len(token_string(first, second)) == len(first.runs) + len(second.runs) + 2
    trie = engine.trie
    forward, back = (trie.run_parents[engine.record(i)] for i in (0, 1))
    assert (len(forward), len(back)) == (first.run_count, second.run_count)
    assert trie.run_parents.dtype == np.int64
    # the trie keeps the leaf after each run by its parent, an internal node
    # shallower than the decoded suffix after the run, terminator included
    # ("b$", "$" and "bab$", "ab$", "b$", "$"), and the run's length counts
    # in its own side's freq column, as the subtree maxima of the brute
    # reference, where the other side's leaves stand for 0
    assert (trie.str_depth[forward] < [2, 1]).all()
    assert (trie.str_depth[back] < [4, 3, 2, 1]).all()
    freq, rev_freq = engine.column(1).freq, engine.column(0).freq
    assert rev_freq.tolist() == brute_column(trie, forward, first.runs[:, 1])[0]
    assert freq.tolist() == brute_column(trie, back, second.runs[:, 1])[0]


def _batch_agrees(engine, i, j):
    """run_sums of seqs[i] against seqs[j]'s column equal batches of one run,
    and add up to total and to the column's batched totals."""
    column = engine.column(j)
    sums = engine.run_sums(i, column)
    # symbols, lengths and leaf parents
    arrays = (*engine.seqs[i].runs.T, engine.trie.run_parents[engine.record(i)])
    singles = [
        exact_ints(_closed_form(engine.trie, column, *(a[k : k + 1] for a in arrays)))[0]
        for k in range(engine.seqs[i].run_count)
    ]
    assert sums == singles
    assert sum(sums) == engine.total(i, column) == engine.totals(j, column)[i]


@given(
    st.text(alphabet="abc", min_size=1, max_size=40),
    st.text(alphabet="abc", min_size=1, max_size=40),
)
def test_run_sums_batch_matches_single_runs(x, y):
    engine, _, _ = engine_for(x, y)
    _batch_agrees(engine, 0, 1)
    _batch_agrees(engine, 1, 0)


def test_acs_micro():
    first, second = make_pair("aab", "ab")
    result = acs(first, second)
    assert result.lsum == 4
    assert result.x == 3
    assert result.value == Fraction(4, 3)
    assert result.as_float == pytest.approx(4 / 3)
    back = acs(second, first)
    assert back.value == Fraction(3, 2)


def test_acs_unary_closed_form():
    first, second = make_pair("a" * 9, "a" * 3)
    result = acs(first, second)
    assert result.lsum == 24
    assert result.value == Fraction(8, 3)


def test_acs_giant_unary_runs():
    x_len, m = 10**9, 10**6
    first = RleSeq("X", [(2, x_len)])
    second = RleSeq("Y", [(2, m)])
    result = acs(first, second)
    assert result.lsum == m * (x_len - m) + m * (m + 1) // 2
    assert result.lsum == 999500000500000


def test_acs_absent_symbol_is_zero():
    first, second = make_pair("ab", "cd")
    assert acs(first, second).lsum == 0


def test_acs_self_closed_form():
    assert acs_self(3) == 2
    assert acs_self(1) == 1
    assert acs_self(2) == Fraction(3, 2)
    with pytest.raises(ValueError, match="sequence too short"):
        acs_self(0)


def test_engine_self_pair_matches_closed_form():
    for text in ("ab", "aab", "mississippi", "aaaa"):
        first, second = make_pair(text, text)
        assert acs(first, second).value == acs_self(len(text))


def test_engine_keeps_the_callers_sequences():
    first, second = make_pair("aab", "abab")
    engine = AcsEngine(first, second)
    assert engine.seqs[0] is first and engine.seqs[1] is second
    # one object on both sides: the token string still ends each side in its
    # own terminator, and so do the oracle's walkers
    for text in ("a", "aab", "mississippi", "aaaa"):
        seq, _ = make_pair(text, "a")
        same = AcsEngine(seq, seq)
        assert same.seqs[0] is same.seqs[1] is seq
        x = seq.content_length
        assert pair_totals(same) == (x * (x + 1) // 2,) * 2
        assert run_walk_total(seq, seq) == x * (x + 1) // 2
        assert check_pair(seq, seq) == []


def test_per_position_micro():
    engine, _, _ = engine_for("aab", "ab")
    assert forward_positions(engine) == [1, 2, 1]
    engine, _, _ = engine_for("ab", "aab")
    assert forward_positions(engine) == [2, 1]


def test_per_position_unary():
    engine, _, _ = engine_for("a" * 9, "a" * 3)
    assert forward_positions(engine) == [3, 3, 3, 3, 3, 3, 3, 2, 1]


def test_per_position_absent_symbol():
    # Y holds a single b: the bb run caps at maxRun 1, the a runs at 0
    engine, _, _ = engine_for("aabba", "b")
    lengths = forward_positions(engine)
    assert lengths == brute_match_lengths("aabba", "b")
    assert lengths == [0, 0, 1, 1, 0]


def test_per_position_cap():
    engine, _, _ = engine_for("aaaa", "aa")
    with pytest.raises(ValueError, match="over validation cap"):
        forward_positions(engine, cap=3)
    assert forward_positions(engine, cap=4) == [2, 2, 2, 1]


def test_dist_micro_frozen():
    first, second = make_pair("aab", "ab")
    result = dist(first, second)
    assert result.log_base == "e"
    assert result.acs_xy == Fraction(4, 3)
    assert result.acs_yx == Fraction(3, 2)
    assert result.acs_xx == 2
    assert result.acs_yy == Fraction(3, 2)
    assert result.value == pytest.approx(0.12043215657900687, abs=1e-9)


def test_dist_log_bases():
    first, second = make_pair("aab", "ab")
    natural = dist(first, second, "e").value
    base2 = dist(first, second, "2").value
    base10 = dist(first, second, "10").value
    assert base2 == pytest.approx(natural / math.log(2))
    assert base10 == pytest.approx(natural / math.log(10))
    with pytest.raises(ValueError, match="unknown log base"):
        dist(first, second, "7")


def test_unknown_log_base_refused_before_any_build(monkeypatch):
    first, second = make_pair("aab", "ab")

    def build(*seqs, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(rleacs.engine, "AcsEngine", build)
    for call in (lambda: dist(first, second, "3"), lambda: dist_matrix([first, second], "3")):
        with pytest.raises(ValueError, match="^unknown log base '3'$"):
            call()


def test_engine_needs_a_sequence():
    for call in (AcsEngine, lambda: dist_matrix([])):
        with pytest.raises(ValueError, match="^AcsEngine needs at least one sequence$"):
            call()


def test_dist_identity_is_exactly_zero():
    for text in ("ab", "aabba", "xyzzy"):
        first, second = make_pair(text, text)
        assert dist(first, second).value == 0.0


def test_dist_symmetric_bit_identical():
    first, second = make_pair("aabbab", "abbba")
    forward = dist(first, second).value
    backward = dist(second, first).value
    assert forward == backward


def test_dist_rejects_degenerate_inputs():
    first, second = make_pair("a", "ab")
    with pytest.raises(ValueError, match="sequence too short"):
        dist(first, second)
    with pytest.raises(ValueError, match="sequence too short"):
        dist(second, first)
    first, second = make_pair("ab", "cd")
    with pytest.raises(ValueError, match="no common substring"):
        dist(first, second)


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=30), min_size=2, max_size=5))
def test_dist_matrix_matches_pair_distances(texts):
    # one family trie, one column per record, against one pair build per cell
    seqs = [encode(text, f"s{j}") for j, text in enumerate(texts)]
    expect = [[0.0] * len(seqs) for _ in seqs]
    first_error = None
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            try:
                expect[i][j] = expect[j][i] = dist(seqs[i], seqs[j]).value
            except ValueError as exc:
                first_error = first_error or f"pair s{i}/s{j}: {exc}"
    for threads in (1, 2, 3, 4):
        if first_error is None:
            assert dist_matrix(seqs, threads=threads) == expect
        else:
            with pytest.raises(ValueError) as caught:
                dist_matrix(seqs, threads=threads)
            assert str(caught.value) == first_error


def test_dist_matrix_on_one_thread_starts_none(monkeypatch):
    seqs = [encode(text, f"s{j}") for j, text in enumerate(("aab", "abb", "ba"))]
    expect = dist_matrix(seqs, threads=2)

    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(rleacs.engine, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(threading.Thread, "__init__", refuse)
    assert dist_matrix(seqs, threads=1) == expect


def test_dist_matrix_workers_stop_at_the_column_count(monkeypatch):
    # the calling thread takes columns too, so k columns need k - 1 workers
    # at most, however many threads are asked for
    asked = []
    pool = rleacs.engine.ThreadPoolExecutor

    def counted(max_workers):
        asked.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(rleacs.engine, "ThreadPoolExecutor", counted)
    seqs = [encode(text, f"s{j}") for j, text in enumerate(("aab", "abb", "ba"))]
    grids = [dist_matrix(seqs, threads=threads) for threads in (2, 3, 8)]
    assert grids[0] == grids[1] == grids[2]
    assert asked == [1, 2, 2]


def test_dist_matrix_threads_take_each_column_once(monkeypatch):
    # more threads than cores, switching every few microseconds, each take
    # every threads-th column: each column is annotated once and the grid
    # is the one-thread grid
    rng = random.Random(31)
    seqs = [encode(random_runny_text(rng, 300, "acgt", 3), f"s{j}") for j in range(12)]
    expect = dist_matrix(seqs)
    taken = []
    column = AcsEngine.column

    def counted(self, j):
        taken.append(j)
        return column(self, j)

    monkeypatch.setattr(AcsEngine, "column", counted)
    got = []
    runner = threading.Thread(target=lambda: got.append(dist_matrix(seqs, threads=6)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [expect]
    assert sorted(taken) == list(range(len(seqs)))


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=30), min_size=1, max_size=5))
def test_totals_are_each_total_and_zero_at_the_column(texts):
    # one batch over every run of the family, the column's own included and dropped
    engine = AcsEngine(*(encode(text, f"s{j}") for j, text in enumerate(texts)))
    for j in range(len(texts)):
        column = engine.column(j)
        expect = [0 if i == j else engine.total(i, column) for i in range(len(texts))]
        assert engine.totals(j, column) == expect


def test_dist_value_formula_layer():
    value = dist_value(3, 2, Fraction(4, 3), Fraction(3, 2), "e")
    expect = 0.5 * (math.log(2) / (4 / 3) + math.log(3) / 1.5) - 0.5 * (
        math.log(3) / 2 + math.log(2) / 1.5
    )
    assert value == pytest.approx(expect, abs=1e-12)
    assert dist_value(2, 3, Fraction(3, 2), Fraction(4, 3), "e") == value


def _assert_near_reference(x, y, acs_xy, acs_yx, log_base="e"):
    value = dist_value(x, y, acs_xy, acs_yx, log_base)
    ref, scale = reference_dist(x, y, acs_xy, acs_yx, log_base)
    assert abs(Decimal(value) - ref) <= scale * Decimal(2) ** -52
    assert dist_value(y, x, acs_yx, acs_xy, log_base) == value
    return value, ref


lengths = st.integers(min_value=2, max_value=MAX_DECODED_LENGTH - 1)


def _first_test_only():
    """Fails a dist_value call whose rounding test fails, as its retry asks
    for logs at twice LOG_BITS."""
    fixed_log = rleacs.engine._fixed_log

    def first_only(log_base, length, bits):
        assert bits == rleacs.engine.LOG_BITS, f"the rounding test failed at length {length}"
        return fixed_log(log_base, length, bits)

    return mock.patch.object(rleacs.engine, "_fixed_log", first_only)


@settings(max_examples=300)
@given(
    lengths,
    lengths,
    st.booleans(),
    st.booleans(),
    st.sampled_from(["e", "2", "10"]),
    st.data(),
)
def test_dist_value_matches_decimal_reference(x, y, same, near, log_base, data):
    # lsums near the self totals x(y+1)/2 and y(x+1)/2, with x == y as
    # often as not: the four addends nearly cancel, as they do for similar
    # sequences; the others are drawn from their whole range
    if same:
        y = x
    if near:
        offsets = st.integers(min_value=-(1 << 20), max_value=1 << 20)
        lsum_xy = min(max(x * (y + 1) // 2 + data.draw(offsets), 1), x * y)
        lsum_yx = min(max(y * (x + 1) // 2 + data.draw(offsets), 1), x * y)
    else:
        lsum_xy = data.draw(st.integers(min_value=1, max_value=x * y))
        lsum_yx = data.draw(st.integers(min_value=1, max_value=x * y))
    acs_xy, acs_yx = Fraction(lsum_xy, x), Fraction(lsum_yx, y)
    with _first_test_only():
        value = dist_value(x, y, acs_xy, acs_yx, log_base)
        swapped = dist_value(y, x, acs_yx, acs_xy, log_base)
    assert value == reference_float(x, y, acs_xy, acs_yx, log_base)
    assert swapped.hex() == value.hex()


@pytest.mark.parametrize("run", [10**6, 1 << 61])
def test_dist_value_of_similar_long_sequences(run):
    # X = a^L b a^5 and Y = a^L b^2 a^5 differ in one character; the
    # distance is tiny next to its addends (1.75e-34 at L = 2^61)
    first = RleSeq("X", [(2, run), (3, 1), (2, 5)])
    second = RleSeq("Y", [(2, run), (3, 2), (2, 5)])
    result = dist(first, second)
    value, ref = _assert_near_reference(
        first.content_length, second.content_length, result.acs_xy, result.acs_yx
    )
    assert result.value == value
    assert abs(Decimal(value) - ref) <= abs(ref) * Decimal(2) ** -53


def test_dist_value_near_cancelling_gaps_at_the_length_bound():
    # x == y near 2^62, the gaps cancel to 10^-74 of the addends; 40 decimal
    # digits of the two products gave 4.855e-91
    x = 3995083215806926805
    acs_xy = Fraction(7980344950611107849212185117217217414, x)
    acs_yx = Fraction(7980344950611107849212185117217217416, x)
    for args in ((x, x, acs_xy, acs_yx, "2"), (x, x, acs_yx, acs_xy, "2")):
        with _first_test_only():
            assert dist_value(*args) == 4.857352647552995e-91 == reference_float(*args)


def test_dist_value_falls_back_when_the_rounding_test_fails():
    # fewer fixed-point log bits widen the bracket until its ends round to
    # different floats; the retry at twice the bits then gives the same
    # float, and so does every width that passes the test. At 1 bit even
    # the retry's ends differ, and the bracket's midpoint is within 2^-2
    # of the summed absolute gaps, plus half an ulp
    cases = [
        (3, 2, Fraction(4, 3), Fraction(3, 2), "e"),
        (1 << 40, 999, Fraction(17, 3), Fraction(5, 2), "2"),
        (10**18, 10**18, Fraction(10**18 - 7, 2), Fraction(10**18 + 5, 2), "10"),
    ]
    fixed_log = rleacs.engine._fixed_log
    for x, y, acs_xy, acs_yx, log_base in cases:
        case = (x, y, acs_xy, acs_yx, log_base)
        expect = dist_value(*case)
        asked = set()
        bits = rleacs.engine.LOG_BITS
        with mock.patch.object(
            rleacs.engine, "_fixed_log", lambda *a: asked.add(a[2]) or fixed_log(*a)
        ):
            while 2 * bits not in asked:
                bits //= 2
                assert bits > 0, "the rounding test never failed"
                asked.clear()
                with mock.patch.object(rleacs.engine, "LOG_BITS", bits):
                    assert dist_value(*case) == expect
            asked.clear()
            with mock.patch.object(rleacs.engine, "LOG_BITS", 1):
                value = dist_value(*case)
        assert asked == {1, 2}
        ref, _ = reference_dist(*case)
        gaps = abs(1 / acs_xy - 2 / Fraction(y + 1)) + abs(1 / acs_yx - 2 / Fraction(x + 1))
        error = abs(Fraction(value) - Fraction(ref))
        assert error <= gaps / 4 + Fraction(math.ulp(value)) / 2 + Fraction(1, 10**100)


def test_dist_value_is_exactly_zero_when_the_gaps_cancel():
    with _first_test_only():
        for log_base in ("e", "2", "10"):
            # equal averages: both gaps are 0
            for x, y in ((2, 2), (7, 13), (MAX_DECODED_LENGTH - 1, 3)):
                assert dist_value(x, y, acs_self(y), acs_self(x), log_base) == 0.0
            # x == y and 1/acs_xy - 2/(x + 1) = -(1/acs_yx - 2/(x + 1))
            for x in (5, 1000, MAX_DECODED_LENGTH - 1):
                gap = Fraction(1, x * (x + 1))
                acs_xy = 1 / (2 / Fraction(x + 1) + gap)
                acs_yx = 1 / (2 / Fraction(x + 1) - gap)
                assert dist_value(x, x, acs_xy, acs_yx, log_base) == 0.0
                assert dist_value(x, x, acs_yx, acs_xy, log_base) == 0.0
        # x = 4 and y = 8: log(8) * 2/45 = log(4) * 1/15, so the two addends
        # cancel exactly, which no bracket of the logs can show
        for args in ((4, 8, Fraction(15, 4), Fraction(3)), (8, 4, Fraction(3), Fraction(15, 4))):
            assert dist_value(*args) == 0.0


def test_last_run_closed_forms():
    # the final run's sum must match the simple formulas in both branches
    for x, y in (("ba", "aaa"), ("baaaa", "aa"), ("abbb", "cb")):
        engine, first, second = engine_for(x, y)
        sym, f = first.runs[-1].tolist()
        column = engine.column(1)
        m = int(column.max_run[sym])
        expect = (
            0
            if m == 0
            else (f * (f + 1) // 2 if f <= m else m * f - m * (m - 1) // 2)
        )
        assert engine.run_sums(0, column)[-1] == expect


text_pairs = (
    st.text(alphabet="ab", min_size=1, max_size=50),
    st.text(alphabet="ab", min_size=1, max_size=50),
)


@settings(max_examples=300)
@given(*text_pairs)
def test_total_matches_brute(x, y):
    engine, _, _ = engine_for(x, y)
    assert pair_totals(engine)[0] == sum(brute_match_lengths(x, y))


@given(
    st.text(alphabet="abcd", min_size=1, max_size=60),
    st.text(alphabet="abcd", min_size=1, max_size=60),
)
def test_acs_matches_brute_wider_alphabet(x, y):
    first, second = make_pair(x, y)
    assert acs(first, second).value == brute_acs(x, y)


@given(
    st.lists(
        st.tuples(st.sampled_from("ab"), st.integers(min_value=1, max_value=9)),
        min_size=1,
        max_size=12,
    ),
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=9)),
        min_size=1,
        max_size=12,
    ),
)
def test_total_matches_brute_long_runs(x_pairs, y_pairs):
    x = "".join(ch * k for ch, k in x_pairs)
    y = "".join(ch * k for ch, k in y_pairs)
    engine, _, _ = engine_for(x, y)
    assert pair_totals(engine)[0] == sum(brute_match_lengths(x, y))


@given(*text_pairs)
def test_per_position_matches_brute(x, y):
    engine, _, _ = engine_for(x, y)
    assert forward_positions(engine) == brute_match_lengths(x, y)


@given(*text_pairs)
def test_per_run_grouping(x, y):
    engine, first, _ = engine_for(x, y)
    lengths = forward_positions(engine)
    sums = engine.run_sums(0, engine.column(1))
    pos = 0
    for i in range(first.run_count):
        f = int(first.runs[i, 1])
        assert sums[i] == sum(lengths[pos : pos + f])
        pos += f
    assert pos == len(lengths)


@given(
    st.text(alphabet="ab", min_size=1, max_size=40),
    st.text(alphabet="ab", min_size=1, max_size=40),
    st.text(alphabet="ab", min_size=0, max_size=15),
)
def test_appending_to_second_never_lowers_total(x, y, extra):
    base, _, _ = engine_for(x, y)
    grown, _, _ = engine_for(x, y + extra)
    assert pair_totals(grown)[0] >= pair_totals(base)[0]


@given(
    st.text(alphabet="abc", min_size=2, max_size=40),
    st.text(alphabet="abc", min_size=2, max_size=40),
)
def test_dist_axioms(x, y):
    first, second = make_pair(x, y)
    self_first, self_second = make_pair(x, x)
    assert abs(dist(self_first, self_second).value) <= 1e-12
    try:
        forward = dist(first, second).value
    except ValueError:
        return  # disjoint alphabets have no finite distance
    backward = dist(second, first).value
    assert abs(forward - backward) <= 1e-12


def test_reverse_view_micro():
    engine, first, second = engine_for("aab", "ab")
    back = engine.column(0)
    assert engine.total(1, back) == 3  # ACS(Y,X) = 3/2
    assert engine.run_sums(1, back) == [2, 1]
    assert per_position_lengths(engine, 1, back) == brute_match_lengths("ab", "aab")
    assert engine.totals(0, back) == [0, 3]
    assert engine.total(0, engine.column(1)) == 4


def _assert_tie_swaps(first, second, x_run, y_run):
    """The X suffix at x_run and the Y suffix at y_run have equal content:
    they are neighbors in both terminator assignments, in swapped order."""
    forward = suffix_refs(build_suffix_order(first, second))
    backward = suffix_refs(build_suffix_order(second, first))
    k = forward.index(SuffixRef(0, x_run))
    assert forward[k + 1] == SuffixRef(1, y_run)
    k = backward.index(SuffixRef(0, y_run))
    assert backward[k + 1] == SuffixRef(1, x_run)


@settings(max_examples=200)
@given(
    st.text(alphabet="abc", min_size=1, max_size=40),
    st.text(alphabet="abc", min_size=0, max_size=20),
    st.integers(min_value=0, max_value=1000),
)
def test_reverse_from_one_build_at_sentinel_ties(x, head, cut):
    # Y ends with a suffix of X that starts a run in both, so the X and Y
    # suffixes from there on tie on content and only the terminators order them
    starts = [p for p in range(len(x)) if p == 0 or x[p] != x[p - 1]]
    k = cut % len(starts)
    tail = x[starts[k] :]
    if head and head[-1] == tail[0]:
        head += "c" if tail[0] != "c" else "a"
    y = head + tail
    first, second = make_pair(x, y)
    y_run = sum(1 for q in range(len(head)) if q == 0 or head[q] != head[q - 1]) + 1
    _assert_tie_swaps(first, second, k + 1, y_run)

    engine = AcsEngine(first, second)
    total, back = pair_totals(engine)
    assert back == pair_totals(AcsEngine(second, first))[0]
    assert back == sum(brute_match_lengths(y, x))
    assert per_position_lengths(engine, 1, engine.column(0)) == brute_match_lengths(y, x)
    assert total == sum(brute_match_lengths(x, y))


def _chain(draws, sym):
    """Runs whose symbols step away from sym one draw at a time (no neighbor shares one)."""
    out = []
    for step, length in draws:
        sym = (sym + step) % 3
        out.append((FIRST_SYMBOL_ID + sym, length))
    return out


run_draws = st.tuples(
    st.integers(min_value=1, max_value=2),
    st.one_of(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1 << 40, max_value=1 << 58),
    ),
)


@settings(max_examples=60)
@given(
    st.lists(run_draws, min_size=1, max_size=4),
    st.lists(run_draws, min_size=1, max_size=4),
    st.lists(run_draws, min_size=1, max_size=4),
)
def test_reverse_from_one_build_at_length_bound(tail_draws, x_head_draws, y_head_draws):
    # both sequences sit at the 2^62 bound, share their last runs, and have
    # long runs before and inside the shared part; two-sequence totals pass int64
    tail = _chain(tail_draws, 0)
    start = tail[0][0] - FIRST_SYMBOL_ID
    x_head = _chain(x_head_draws, start)[::-1]
    y_head = _chain(y_head_draws, start)[::-1]
    first = at_bound(x_head + tail)
    second = at_bound(y_head + tail)
    assert first.content_length == second.content_length == MAX_DECODED_LENGTH - 1
    _assert_tie_swaps(first, second, len(x_head) + 1, len(y_head) + 1)

    engine = AcsEngine(first, second)
    total, back = pair_totals(engine)
    assert back == pair_totals(AcsEngine(second, first))[0]
    # the run walker shares no kernel with the engine, so an overflow both
    # builds had in common would show here
    assert total == run_walk_total(first, second)
    assert back == run_walk_total(second, first)
    _batch_agrees(engine, 0, 1)
    _batch_agrees(engine, 1, 0)


@pytest.mark.parametrize("seed", range(6))
def test_limb_path_matches_the_run_walk_with_large_runs(seed):
    # runs drawn from a few lengths near 2^53 repeat, so suffixes share long
    # prefixes, and the second sequence lacks the longest, so many of the
    # first's runs have f > m: every term of those runs' closed form fills
    # both limbs, and a lost carry shows as a total off by a multiple of 2^62
    count = 200
    rng = np.random.default_rng(seed)
    pool = np.sort(rng.integers(1 << 52, 1 << 53, size=3))

    def draw(lengths):
        syms = FIRST_SYMBOL_ID + np.cumsum(rng.integers(1, 3, size=count)) % 3
        return RleSeq("s", np.column_stack((syms, rng.choice(lengths, size=count))))

    first, second = draw(pool), draw(pool[:2])
    engine = AcsEngine(first, second)
    assert not _path_of(engine)
    assert pair_totals(engine) == (run_walk_total(first, second), run_walk_total(second, first))
    _batch_agrees(engine, 0, 1)
    _batch_agrees(engine, 1, 0)


def _path_of(engine):
    """The engine's arithmetic path, checked against both of its columns' weight layouts
    (one int64 per internal node, or two int64 limbs per internal node past
    the bound) and their values, telescoped in Python ints from the root down."""
    trie = engine.trie
    shape = (trie.internal,) if trie.int64 else (2, trie.internal)
    parent, depth = trie.parent.tolist(), trie.str_depth.tolist()
    for column in (engine.column(0), engine.column(1)):
        assert column.weight.dtype == np.int64 and column.weight.shape == shape
        expect = [0] * trie.internal
        for v in np.argsort(trie.str_depth, kind="stable")[1:].tolist():
            expect[v] = expect[parent[v]] + int(column.freq[v]) * (depth[v] - depth[parent[v]])
        assert exact_ints(column.weight) == expect
    return trie.int64


@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_unary_pair_at_the_int64_edge(edge):
    # a unary pair's longest record is its longest run, so D = M + 1: at
    # edge 0, D = 2^30 and M * D = 2^60 - 2^30, the largest that fits
    # 4 * M * D <= 2^62; D one shorter takes int64 too and one longer limbs
    short = 5
    long = (1 << 30) - 1 + edge
    first = RleSeq("X", [[FIRST_SYMBOL_ID, long]])
    second = RleSeq("Y", [[FIRST_SYMBOL_ID, short]])
    engine = AcsEngine(first, second)
    assert _path_of(engine) == (edge <= 0)
    assert pair_totals(engine) == (
        short * (short + 1) // 2 + (long - short) * short,
        short * (short + 1) // 2,
    )


@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_two_symbol_pair_at_the_int64_edge(edge):
    # M = 2^29 and D = 2^31 + edge: M * D = 2^60 at edge 0, so 4 * M * D
    # is exactly 2^62 and int64; D one shorter takes int64 and one longer limbs
    a, b = FIRST_SYMBOL_ID, FIRST_SYMBOL_ID + 1
    top = 1 << 29
    body = [[a, top], [b, 3], [a, top], [b, 2], [a, top], [b, 1], [a, 9], [b, 2]]
    second = RleSeq("Y", [[a, 4], [b, 2], [a, 7], [b, 5], [a, 1 << 20], [b, 3]])
    first = RleSeq("X", [*body, [a, (1 << 31) - 1 + edge - sum(n for _, n in body)]])
    assert max(int(seq.runs[:, 1].max()) for seq in (first, second)) == top
    assert first.content_length + 1 == (1 << 31) + edge
    engine = AcsEngine(first, second)
    assert _path_of(engine) == (edge <= 0)
    assert pair_totals(engine) == (run_walk_total(first, second), run_walk_total(second, first))
    _batch_agrees(engine, 0, 1)
    _batch_agrees(engine, 1, 0)


@pytest.mark.parametrize("y", [1, 5, (1 << 61) + 3, MAX_DECODED_LENGTH - 1])
def test_unary_pair_at_the_length_bound(y):
    # X is one run of 2^62 - 1, the longest a sequence holds, so its signed
    # run length is the largest a rank-0 key takes; for a unary pair
    # x * ACS(X, Y) is the sum over L <= x of min(L, y)
    x = MAX_DECODED_LENGTH - 1
    first = RleSeq("X", [[FIRST_SYMBOL_ID, x]])
    second = RleSeq("Y", [[FIRST_SYMBOL_ID, y]])
    assert pair_totals(AcsEngine(first, second)) == (
        y * (y + 1) // 2 + (x - y) * y,
        y * (y + 1) // 2,
    )


def test_two_symbol_pairs_at_the_length_bound():
    # signed run lengths reach -(2^62 - 2), a run before a larger symbol,
    # and 2^62 - 1, a run before its terminator: a span past int64, which
    # rank0's fold takes in two parts around a re-rank
    a, b = FIRST_SYMBOL_ID, FIRST_SYMBOL_ID + 1
    bound = MAX_DECODED_LENGTH - 1
    pairs = [(RleSeq("X", [[a, bound - 1], [b, 1]]), RleSeq("Y", [[b, bound]]))]
    signed = _token_columns(pairs[0], token_bounds(pairs[0]))[2]
    assert (int(signed.min()), int(signed.max())) == (-(bound - 1), bound)
    rng = random.Random(37)
    for _ in range(8):
        first, second = (
            at_bound(
                [
                    [(a, b)[(k + start) % 2], rng.choice([1, 2, 3, 1 << 40, 1 << 59])]
                    for k in range(rng.randint(1, 6))
                ]
            )
            for start in (0, 1)
        )
        pairs.append((first, second))
    for first, second in pairs:
        assert pair_totals(AcsEngine(first, second)) == (
            run_walk_total(first, second),
            run_walk_total(second, first),
        )


def test_limb_family_with_int64_pairs_matches_pairwise_dist():
    # s0 holds the longest run, M = 2^29, and s1 the longest record, D =
    # 2^32: the family, and the pair s0/s1, are past 4 * M * D <= 2^62, while
    # the pairs with s2 take int64; the matrix's limb columns give the
    # distances that each pair's own build gives
    a, b = FIRST_SYMBOL_ID, FIRST_SYMBOL_ID + 1
    step = 1 << 27
    s1_runs = [[b if k % 2 else a, step] for k in range(32)]
    s1_runs[-1][1] -= 1
    seqs = [
        RleSeq("s0", [[a, 1 << 29], [b, 2], [a, 3]]),
        RleSeq("s1", s1_runs),
        RleSeq("s2", [[a, 7], [b, 5]]),
    ]
    assert seqs[1].content_length + 1 == 1 << 32
    trie = extract_symbol_tries(leaf_blocks(build_suffix_order(*seqs)))
    assert not trie.int64
    expect = [[0.0] * 3 for _ in seqs]
    for i in range(3):
        for j in range(i + 1, 3):
            assert _path_of(AcsEngine(seqs[i], seqs[j])) == (j == 2)
            expect[i][j] = expect[j][i] = dist(seqs[i], seqs[j]).value
    assert dist_matrix(seqs) == expect


def test_int64_pair_totals_past_2_63():
    # 60 alternating runs of 2^27 and the same less 5 at the end: 4 * M * D
    # is about 2^61.9, so the pair takes int64, yet each total, a sum of
    # int64 run sums, is about 3.2 * 10^19 and passes 2^63
    a, b = FIRST_SYMBOL_ID, FIRST_SYMBOL_ID + 1
    runs = [[b if k % 2 else a, 1 << 27] for k in range(60)]
    first = RleSeq("X", runs)
    runs[-1][1] -= 5
    second = RleSeq("Y", runs)
    engine = AcsEngine(first, second)
    assert engine.trie.int64
    totals = pair_totals(engine)
    assert totals == (run_walk_total(first, second), run_walk_total(second, first))
    assert min(totals) > 1 << 63
    _batch_agrees(engine, 0, 1)
    _batch_agrees(engine, 1, 0)


@pytest.mark.parametrize("exact", [False, True])
def test_family_totals_past_2_63_match_each_total(exact):
    # three records of 60, 60 and 59 runs of about 2^27, on either path;
    # every cross total passes 2^63, and each column's batched totals, cut
    # back per record, equal total() of each record and the run walk
    a, b = FIRST_SYMBOL_ID, FIRST_SYMBOL_ID + 1
    runs = [[b if k % 2 else a, 1 << 27] for k in range(60)]
    shorter_last = [*runs[:-1], [runs[-1][0], runs[-1][1] - 5]]
    shorter_first = [[a, (1 << 27) - 3], *runs[1:59]]
    seqs = [RleSeq(name, rows) for name, rows in zip("XYZ", (runs, shorter_last, shorter_first))]
    engine = AcsEngine(*seqs, _exact=exact)
    assert engine.trie.int64 is not exact
    for j in range(3):
        column = engine.column(j)
        totals = engine.totals(j, column)
        assert totals[j] == 0
        for i in range(3):
            if i != j:
                assert totals[i] == engine.total(i, column) == run_walk_total(seqs[i], seqs[j])
                assert totals[i] > 1 << 63


@settings(max_examples=60)
@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=40), min_size=2, max_size=5))
def test_int64_and_exact_paths_agree_on_families(texts):
    # one family, built on each path: the same columns, the same batched
    # totals and the same run sums, value for value
    seqs = tuple(encode(text, f"s{j}") for j, text in enumerate(texts))
    engine = AcsEngine(*seqs)
    exact = AcsEngine(*seqs, _exact=True)
    assert engine.trie.int64 and not exact.trie.int64
    for j in range(len(seqs)):
        column, exact_column = engine.column(j), exact.column(j)
        assert column.weight.shape == (engine.trie.internal,)
        assert exact_column.weight.shape == (2, engine.trie.internal)
        assert column.freq.tolist() == exact_column.freq.tolist()
        assert column.weight.tolist() == exact_ints(exact_column.weight)
        assert column.max_run.tolist() == exact_column.max_run.tolist()
        totals = engine.totals(j, column)
        assert totals == exact.totals(j, exact_column)
        for i in range(len(seqs)):
            if i != j:
                sums = engine.run_sums(i, column)
                assert sums == exact.run_sums(i, exact_column)
                assert sum(sums) == totals[i] == engine.total(i, column)
