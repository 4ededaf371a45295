"""The randomized harness must pass on the real engine and catch planted bugs."""

import dataclasses
import math
import random
import re
import signal
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rleacs.engine
import rleacs.verify
from rleacs import symbol_tries
from rleacs.cli import EXIT_VERIFY, main
from rleacs.engine import AcsEngine
from rleacs.rle import FIRST_SYMBOL_ID, MAX_SYMBOL_ID, RleSeq, encode, parse_rle_text
from rleacs.suffixes import SuffixOrder, build_suffix_order
from rleacs.symbol_tries import (
    annotate,
    extract_symbol_tries,
    leaf_blocks,
    limb_product,
)
from rleacs.verify import (
    FAMILY_EVERY,
    STRETCH,
    check_family,
    check_pair,
    check_run_walk,
    geometric,
    random_family,
    random_text,
    rle_record,
    run_verification,
    stretched,
)

from conftest import make_pair


def column_as_min(trie, parents, runs):
    """A column whose support is a subtree minimum over every leaf below, a
    leaf of another record counting 0, not the maximum over the column's own.

    parents are the column's own runs' entries of trie.run_parents, and a
    node has a leaf of another record below it wherever run_parents has
    more entries for it than parents. Weights and the supported table are
    built from it as annotate would, and the root keeps the column's true
    support, so every climb stays defined and the fault shows as wrong
    answers, not as a crash: nearly every run's threshold-1 ancestor is the
    root. A parent is strictly shallower than its children, so nodes by
    str_depth go parents first. Every engine it serves is on the int64
    path, so the weights are int64.
    """
    true = annotate(trie, parents, runs)
    best = np.full(trie.internal, 1 << 62, dtype=np.int64)  # each node has a leaf below
    np.minimum.at(best, parents, runs[:, 1])
    others = np.bincount(trie.run_parents, minlength=trie.internal)
    best[others > np.bincount(parents, minlength=trie.internal)] = 0
    by_depth = np.argsort(trie.str_depth, kind="stable").tolist()
    for v in by_depth[:0:-1]:
        p = trie.parent[v]
        best[p] = min(best[p], best[v])
    best[0] = true.freq[0]
    weight = [0] * trie.internal
    supported = list(range(trie.internal))
    for v in by_depth[1:]:
        p = trie.parent[v]
        weight[v] = weight[p] + int(best[v]) * int(trie.str_depth[v] - trie.str_depth[p])
        if best[v] < 1:
            supported[v] = supported[p]
    return dataclasses.replace(
        true,
        freq=best,
        weight=np.array(weight, dtype=np.int64),
        supported=np.array(supported, dtype=np.int64),
    )


class FreqAsMin(AcsEngine):
    """Planted bug: every column's support is a subtree minimum (column_as_min)."""

    def column(self, j):
        parents = self.trie.run_parents[self.trie.record(j)]
        return column_as_min(self.trie, parents, self.seqs[j].runs)


class FamilyMin(AcsEngine):
    """Planted bug: column_as_min in families of 3 or more; every pair's engine is right."""

    def column(self, j):
        if len(self.seqs) > 2:
            parents = self.trie.run_parents[self.trie.record(j)]
            return column_as_min(self.trie, parents, self.seqs[j].runs)
        return super().column(j)


class SupportedUnclimbed(AcsEngine):
    """Planted bug: the supported table skips its pointer doubling, so a node
    without a preceding run below points to its parent, not to its deepest
    ancestor with one."""

    def column(self, j):
        column = super().column(j)
        trie = self.trie
        own = np.arange(trie.internal, dtype=np.int64)
        start = np.where(column.freq > 0, own, np.maximum(trie.parent, 0))
        return dataclasses.replace(column, supported=start)


class ReverseReadsForward(AcsEngine):
    """Planted bug: every column is the last sequence's, so a pair's reverse
    direction reads the forward column."""

    def column(self, j):
        return super().column(len(self.seqs) - 1)


class ShortDoubling(AcsEngine):
    """Planted bug: int64 weights summed without the last lifting row.

    Nodes deeper than that row's reach miss the top of their root path,
    which only the exact-path rebuild sees directly.
    """

    def column(self, j):
        column = super().column(j)
        trie = self.trie
        weight = column.freq * (trie.str_depth - trie.str_depth[np.maximum(trie.parent, 0)])
        for row in trie.up[:-1]:
            weight += weight[row]
        return dataclasses.replace(column, weight=weight)


class RunSumsReversed(AcsEngine):
    """Planted bug: run sums come back in reverse run order; every total stays right."""

    def run_sums(self, i, column):
        return super().run_sums(i, column)[::-1]


class FirstGapDeeper(SuffixOrder):
    """A suffix order whose lcp reads the first pair asked one too deep."""

    def lcp(self, a, b):
        gaps = super().lcp(a, b)
        gaps[:1] += 1
        return gaps


class GapOffByOne(AcsEngine):
    """Planted bug: the query trie's first in-block gap is one too deep.

    leaf_blocks asks lcp for its in-block gaps only, so the first
    leaf pair of the lowest block with two leaves gets a wrong branch depth.
    """

    def __init__(self, *seqs, _exact=False):
        def deeper(*seqs):
            order = build_suffix_order(*seqs)
            fields = {f.name: getattr(order, f.name) for f in dataclasses.fields(order)}
            return FirstGapDeeper(**fields)

        with mock.patch.object(symbol_tries, "build_suffix_order", deeper):
            super().__init__(*seqs, _exact=_exact)


class ShallowerGapLeaf(AcsEngine):
    """Planted bug: each leaf hangs from the node of its shallower neighbor gap.

    A gap's node is the deepest common ancestor of the two leaves beside
    it, and the gaps past either end are the root's.
    """

    def __init__(self, *seqs, _exact=False):
        with mock.patch.object(rleacs.engine, "extract_symbol_tries", leaves_on_shallower_gaps):
            super().__init__(*seqs, _exact=_exact)


def leaves_on_shallower_gaps(*seqs, _exact=False):
    """extract_symbol_tries with ShallowerGapLeaf's planted bug."""
    trie = extract_symbol_tries(*seqs, _exact=_exact)
    parent = trie.parent.tolist()
    str_depth = trie.str_depth.tolist()
    tokens, _ = leaf_blocks(build_suffix_order(*seqs))
    runs = tokens - 1
    # the leaves' parents, in leaf order
    above = trie.run_parents[runs].tolist()

    def path(v):
        while v >= 0:
            yield v
            v = parent[v]

    def meet(a, b):
        on_a = set(path(a))
        return next(v for v in path(b) if v in on_a)

    # two leaves meet where their parents do
    gaps = [0, *(meet(a, b) for a, b in zip(above, above[1:])), 0]
    run_parents = trie.run_parents.copy()
    run_parents[runs] = [min(pair, key=str_depth.__getitem__) for pair in zip(gaps, gaps[1:])]
    # only leaves move, so the internal nodes and their lifting rows stay
    return dataclasses.replace(trie, run_parents=run_parents)


def limb_tokens_by_length(str_depth, run_parents, lengths):
    """limb_tokens with a planted bug: the run's test reads f alone, not
    depth[p] + f, so a short run above a deep node stays on int64."""
    return np.flatnonzero(lengths >= 1 << 31)


class LimbTestByLength(AcsEngine):
    """Planted bug: the trie flags its limb runs by limb_tokens_by_length."""

    def __init__(self, *seqs, _exact=False):
        with mock.patch.object(symbol_tries, "limb_tokens", limb_tokens_by_length):
            super().__init__(*seqs, _exact=_exact)


class JumpOneShort(AcsEngine):
    """Planted bug: the trie build's pointer jumping stops one round early, and
    the nearest-smaller searches it leaves open get no descent."""

    def __init__(self, *seqs, _exact=False):
        with (
            mock.patch.object(symbol_tries, "JUMP_ROUNDS", symbol_tries.JUMP_ROUNDS - 1),
            mock.patch.object(symbol_tries, "_descend", lambda rows, near, *rest: near),
        ):
            super().__init__(*seqs, _exact=_exact)


def annotate_to_grandparent(trie, parents, runs):
    """annotate with a planted bug: each run's length is pushed to its leaf's
    grandparent (the root, for a leaf that hangs from it), not its parent."""
    return annotate(trie, np.maximum(trie.parent[parents], 0), runs)


class ExplodingEngine(AcsEngine):
    def __init__(self, *seqs):
        raise RuntimeError("boom")


def _family(texts):
    return [encode(text, f"F.{j}") for j, text in enumerate(texts)]


def test_clean_run_passes():
    report = run_verification(seed=3, trials=40, n_max=100)
    assert report.ok
    assert report.passed == report.total == 40
    assert report.failure is None and report.failure_record is None


def test_zero_trials_is_vacuous_success():
    report = run_verification(seed=1, trials=0)
    assert report.ok and report.passed == 0 and report.total == 0


def test_same_seed_same_report():
    a = run_verification(seed=11, trials=15, n_max=80)
    b = run_verification(seed=11, trials=15, n_max=80)
    assert a == b


def test_fault_injection_is_caught_and_replayable():
    report = run_verification(seed=5, trials=50, n_max=60, engine_factory=FreqAsMin)
    assert not report.ok
    assert report.passed < report.total
    assert report.failure_record is not None
    # a check caught it, not a crash inside the broken engine
    assert "raised" not in report.failure

    # The reported record must replay: parseable, failing under the broken
    # engine, passing under the real one.
    seqs, _ = parse_rle_text(report.failure_record)
    assert len(seqs) == 2
    assert check_pair(seqs[0], seqs[1], engine_factory=FreqAsMin)
    assert check_pair(seqs[0], seqs[1]) == []


def test_reverse_column_fault_is_caught():
    # the reverse total catches it without the structural checks ...
    report = run_verification(
        seed=5, trials=50, n_max=60, engine_factory=ReverseReadsForward, deep=False
    )
    assert not report.ok
    assert "reverse lsum" in report.failure
    seqs, _ = parse_rle_text(report.failure_record)
    assert check_pair(seqs[0], seqs[1]) == []
    # ... and the column check against the subtree maxima of the preceding
    # runs catches it on the first pair
    report = run_verification(seed=5, trials=50, n_max=60, engine_factory=ReverseReadsForward)
    assert report.failure.startswith("trial 0: ")
    assert "not the subtree maximum" in report.failure


def test_family_column_fault_is_caught_and_replayable():
    shallow = run_verification(seed=5, trials=50, n_max=60, engine_factory=FamilyMin, deep=False)
    report = run_verification(seed=5, trials=50, n_max=60, engine_factory=FamilyMin)
    seqs, _ = parse_rle_text(report.failure_record)
    # every pair's engine is right; the family totals catch the column, and
    # so do the column checks, on the same family trial
    assert not shallow.ok and not report.ok
    assert shallow.passed == report.passed
    assert (report.passed + 1) % FAMILY_EVERY == 0
    assert re.search(r"family: family total \d+->\d+", shallow.failure)
    assert "raised" not in shallow.failure
    assert "family: family column" in report.failure
    # the record is the family's, and it replays
    assert 3 <= len(seqs) <= 5
    assert check_family(seqs, engine_factory=FamilyMin)
    assert check_family(seqs) == []


def test_unclimbed_supported_table_is_caught_and_replayable():
    # a node with freq 0 has its parent's weight, so a climb start left on
    # such a node gives the same totals: only the column checks see it
    shallow = run_verification(
        seed=5, trials=12, n_max=60, engine_factory=SupportedUnclimbed, deep=False
    )
    assert shallow.ok
    report = run_verification(seed=5, trials=50, n_max=60, engine_factory=SupportedUnclimbed)
    assert report.failure.startswith("trial 0: ")
    assert "raised" not in report.failure
    assert re.search(r"query trie: supported at node \d+ is \d+, not \d+", report.failure)
    seqs, _ = parse_rle_text(report.failure_record)
    assert check_pair(*seqs, engine_factory=SupportedUnclimbed)
    assert check_pair(*seqs) == []


def test_block_gap_fault_is_caught_and_replayable():
    report = run_verification(seed=5, trials=50, n_max=60, engine_factory=GapOffByOne)
    assert not report.ok
    assert "raised" not in report.failure
    # the deep structural check names the branch node the gap made too deep
    assert re.search(r"query trie: node \d+ str_depth \d+ != interval min", report.failure)
    seqs, _ = parse_rle_text(report.failure_record)
    assert len(seqs) == 2
    failures = check_pair(seqs[0], seqs[1], engine_factory=GapOffByOne)
    assert any(f.startswith("query trie: node ") for f in failures)
    assert check_pair(seqs[0], seqs[1]) == []


def test_leaf_on_its_shallower_gap_is_caught_by_the_sweep_and_replayable():
    report = run_verification(seed=5, trials=50, n_max=60, engine_factory=ShallowerGapLeaf)
    assert not report.ok
    assert "raised" not in report.failure
    assert re.search(r"query trie: \d+ nodes differ from the sweep's trie", report.failure)
    seqs, _ = parse_rle_text(report.failure_record)
    failures = check_pair(seqs[0], seqs[1], engine_factory=ShallowerGapLeaf)
    assert any("differ from the sweep's trie" in f for f in failures)
    assert check_pair(seqs[0], seqs[1]) == []


def test_short_pointer_jumping_is_caught_and_replayable():
    # the unresolved searches give some nodes a deeper parent, and the cycle
    # that makes stops the build before any query
    report = run_verification(seed=5, trials=50, n_max=60, engine_factory=JumpOneShort)
    assert not report.ok
    assert "parent pointers do not all lead to the root" in report.failure
    seqs, _ = parse_rle_text(report.failure_record)
    assert check_pair(seqs[0], seqs[1], engine_factory=JumpOneShort)
    assert check_pair(seqs[0], seqs[1]) == []


def test_family_run_sums_are_checked_by_position():
    # every total is right, so only the per-run sums against the brute
    # positions can catch it, in families and in pairs
    seqs = _family(["aabab", "abbba", "aaab"])
    failures = check_family(seqs, engine_factory=RunSumsReversed, deep=False)
    assert failures and all(f.startswith("family run sums") for f in failures)
    assert check_family(seqs) == []
    assert "run sums do not match their positions" in check_pair(
        seqs[0], seqs[1], engine_factory=RunSumsReversed, deep=False
    )


def test_int64_fault_is_caught_by_the_exact_path():
    report = run_verification(seed=5, trials=50, n_max=60, engine_factory=ShortDoubling)
    assert not report.ok
    assert re.search(r"pair column [01] differs from the exact path's", report.failure)
    seqs, _ = parse_rle_text(report.failure_record)
    assert check_pair(seqs[0], seqs[1]) == []


def test_limb_weight_fault_is_caught_by_the_exact_path(monkeypatch):
    # annotate's limb loop takes each step's limbs the wrong way round; the
    # engine's closed form keeps its own limb_product, so only the columns
    # of the exact rebuild, which sums its weights on limbs, go wrong
    monkeypatch.setattr(symbol_tries, "limb_product", lambda a, b: limb_product(a, b)[::-1])
    report = run_verification(seed=5, trials=50, n_max=60)
    assert not report.ok
    assert re.search(r"pair column [01] differs from the exact path's", report.failure)
    seqs, _ = parse_rle_text(report.failure_record)
    assert check_pair(seqs[0], seqs[1])
    monkeypatch.undo()
    assert check_pair(seqs[0], seqs[1]) == []


def test_limb_test_without_the_depth_term_is_caught_by_the_run_walk():
    # the first family trial's stretched pair: each record's y-run, read by
    # its length of 8 alone, stays on int64, where its sum, 2^63 + 36,
    # wraps, and each total comes out 2^64 short
    report = run_verification(seed=5, trials=50, n_max=60, engine_factory=LimbTestByLength)
    assert not report.ok
    assert report.failure.startswith(f"trial {FAMILY_EVERY - 1}: stretched pair: lsum ")
    shorts = re.findall(r"lsum (\d+) != run walk (\d+)", report.failure)
    assert len(shorts) == 2 and all(int(b) - int(a) == 1 << 64 for a, b in shorts)
    seqs, _ = parse_rle_text(report.failure_record)
    assert [seq.runs[-2:].tolist() for seq in seqs] == [rleacs.verify.STRETCH_TAIL.tolist()] * 2
    assert check_run_walk(*seqs, engine_factory=LimbTestByLength)
    assert check_run_walk(*seqs) == []


def test_push_to_the_grandparent_is_caught_by_check_pair_and_verify(monkeypatch, capsys):
    # the a-block's Y leaf pushes its run to the root, past its parent, which
    # then holds only the X leaf's 0; the engine and its exact rebuild both
    # annotate so, so only the column checks see the parent's freq directly
    monkeypatch.setattr(rleacs.engine, "annotate", annotate_to_grandparent)
    first, second = make_pair("aab", "ab")
    failures = check_pair(first, second)
    wrong = r"^query trie: freq at node \d+ is 0, not the subtree maximum 1"
    assert any(re.search(wrong, f) for f in failures)
    assert main(["verify", "--trials", "5", "--n-max", "60", "--seed", "5"]) == EXIT_VERIFY
    assert "not the subtree maximum" in capsys.readouterr().err
    monkeypatch.undo()
    assert check_pair(first, second) == []


def test_report_counts_both_paths_and_run_cases():
    trials = 2 * FAMILY_EVERY
    report = run_verification(seed=3, trials=trials, n_max=60)
    assert report.ok
    # every pair and family build within the int64 bound, and one stretched
    # pair per family past it, with limb runs
    assert report.int64_builds == trials + 2
    assert report.limb_builds == 2
    assert report.runs_over_m > 0 and report.runs_without_m > 0
    # each stretched record's stretched run, y-run and z-run, at least
    assert report.runs_on_limbs >= 2 * 2 * 3
    assert "2 with limb runs" in report.coverage
    assert f"{report.runs_on_limbs} on limbs; " in report.coverage
    assert report.refusals == 1
    assert report.coverage.endswith(
        "distance: 1 refusals checked (a side shorter than 2 or no common substring)"
    )


def test_coverage_counts_pairs_whose_refusal_was_checked():
    coverage = Counter()
    for x_text, y_text in (("aab", "ba"), ("a", "ab"), ("aa", "bb"), ("ab", "b")):
        first, second = make_pair(x_text, y_text)
        assert check_pair(first, second, coverage=coverage) == []
    # "a" and "b" are shorter than 2; "aa" and "bb" share no symbol, so both totals are 0
    assert coverage["refusals"] == 3


def test_refusal_checks_catch_a_wrong_refusal(monkeypatch):
    short = make_pair("a", "ab")
    disjoint = make_pair("aa", "bb")

    def unnamed(seqs, *args):
        raise ValueError("no common substring")

    monkeypatch.setattr(rleacs.verify, "dist_matrix", unnamed)
    assert check_pair(*disjoint) == [
        "dist_matrix refused with 'no common substring', not 'pair X/Y: no common substring'"
    ]
    assert check_pair(*short) == [
        "dist_matrix refused with 'no common substring', not 'pair X/Y: sequence too short'"
    ]
    monkeypatch.setattr(rleacs.verify, "dist", lambda first, second: None)
    assert "dist gave a distance, not 'sequence too short'" in check_pair(*short)


def test_distance_one_ulp_off_is_caught(monkeypatch):
    first, second = make_pair("aab", "ab")
    exact = rleacs.engine.dist_value(3, 2, Fraction(4, 3), Fraction(3, 2))

    def one_ulp_up(*args):
        return math.nextafter(rleacs.engine.dist_value(*args), math.inf)

    monkeypatch.setattr(rleacs.verify, "dist_value", one_ulp_up)
    assert check_pair(first, second) == [
        "self distance not zero",
        f"distance {math.nextafter(exact, math.inf)!r} is not the correctly rounded {exact!r}",
    ]


def test_stretched_pairs_pass_the_run_walk():
    rng = random.Random(8)
    for size in (2, 4):
        first, second = make_pair(random_text(rng, 30, size, 2.0), random_text(rng, 30, size, 2.0))
        first, second = stretched(first), stretched(second)
        assert first.runs[:, 1].max() > STRETCH and second.runs[:, 1].max() > STRETCH
        assert check_run_walk(first, second) == []


def test_random_text_of_one_symbol_returns():
    # every later draw would repeat the first run's symbol: it must not loop
    def hang(signum, frame):
        raise TimeoutError("random_text did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        text = random_text(random.Random(0), 10, 1, 1.5)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert text == "a" * 10


def test_families_hold_a_repeat_and_a_missing_symbol():
    rng = random.Random(4)
    for size in (2, 4, 20):
        for _ in range(30):
            texts = random_family(rng, 40, size, 4.0)
            assert 3 <= len(texts) <= 5
            assert len(set(texts)) < len(texts)
            symbols = [set(text) for text in texts]
            assert any(other - mine for mine in symbols for other in symbols)


def test_engine_crash_reported_not_raised():
    first, second = make_pair("aab", "ab")
    failures = check_pair(first, second, engine_factory=ExplodingEngine)
    assert failures == ["engine build raised RuntimeError: boom"]


def test_check_pair_clean_on_micro_example():
    first, second = make_pair("aab", "ab")
    assert check_pair(first, second) == []


def test_geometric_sample_mean():
    rng = random.Random(123)
    for mean in (1.5, 4.0, 32.0):
        samples = [geometric(rng, mean) for _ in range(20000)]
        assert min(samples) >= 1
        observed = sum(samples) / len(samples)
        assert observed == pytest.approx(mean, rel=0.05)


def test_random_text_shape():
    rng = random.Random(9)
    for size, mean in ((2, 1.5), (4, 4.0), (20, 32.0)):
        text = random_text(rng, 500, size, mean)
        assert len(text) == 500
        assert set(text) <= set("abcdefghijklmnopqrst"[:size])


def test_rle_record_round_trip():
    first, second = make_pair("aaabba", "abbb")
    text = rle_record(first) + "\n" + rle_record(second)
    seqs, _ = parse_rle_text(text)
    assert [s.runs.tolist() for s in seqs] == [first.runs.tolist(), second.runs.tolist()]
    assert [s.name for s in seqs] == ["X", "Y"]


# the run-length format's symbols: printable, neither an ASCII digit nor
# whitespace; and characters it cannot carry as a symbol
_TOKEN_SYMBOLS = st.characters().filter(
    lambda ch: ch.isprintable() and not ch.isspace() and ch not in "0123456789"
)
_UNCARRIED = st.sampled_from(["7", " ", "\n", "\x85", "\x01", "\ud800"])


def _carried(text: str) -> bool:
    """Whether the run-length format can carry text's runs as tokens."""
    symbols_ok = all(ch.isprintable() and not ch.isspace() and ch not in "0123456789" for ch in text)
    return symbols_ok and not text.startswith(">")


@given(
    st.text(alphabet=_TOKEN_SYMBOLS, min_size=1, max_size=40)
    | st.text(alphabet=_TOKEN_SYMBOLS | _UNCARRIED, min_size=1, max_size=40)
)
@example("é😀ж>a")
@example(">ab")
def test_rle_record_replays_ids(text):
    # a stripped line that starts with ">" is a header, so a record whose
    # first run is ">" is refused, as is any symbol that is no token symbol
    seq = encode(text, "s")
    if not _carried(text):
        with pytest.raises(ValueError, match="^s: "):
            rle_record(seq)
        return
    (replayed,), _ = parse_rle_text(rle_record(seq))
    assert replayed.runs.tolist() == seq.runs.tolist()


def test_check_pair_renders_every_id():
    # the two largest ids, U+10FFFE and U+10FFFF, pass every brute check
    top = MAX_SYMBOL_ID
    first = RleSeq("X", [(top, 3), (top - 1, 2), (FIRST_SYMBOL_ID, 1), (top, 1)])
    second = RleSeq("Y", [(top - 1, 1), (top, 2), (FIRST_SYMBOL_ID, 2)])
    assert check_pair(first, second) == []
    assert check_pair(second, first) == []
