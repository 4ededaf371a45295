"""Randomized cross-validation of the fast engine against the brute oracle.

Each trial draws a random pair (alphabet size and run-length mean rotate
through fixed grids) and checks every layer: the suffix order and its lcps
against the brute sort; match-length totals both ways against the brute
scan and a reverse build; per-run sums against per-position sums; the final
run against its closed forms; the distance axioms and the distance as the
reference rounds it, or its refusal; and the query trie, node for node
against the stack sweep's (_sweep_compact_trie), its str_depths against
interval mins of the run walker's gaps, each column against brute_column
and its supported table against a walk up from each node. Every
FAMILY_EVERY-th trial also draws a family of 3 to 5 records, with a
repeated record and one that lacks a symbol another has, and checks every
ordered pair's total and run sums from the one family build, and every
column. Every build is also rebuilt on the exact limb path and compared;
the family's first two records, each with its longest run STRETCH longer,
give one more pair past the int64 bound (4 * M * D > 2^62), checked
against the run walker. The first failing check aborts the run and reports
its inputs in the run-length text format, so the case can be replayed.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from string import ascii_lowercase

import numpy as np

from rleacs.engine import AcsEngine, acs_self, dist, dist_matrix, dist_value
from rleacs.oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    brute_match_lengths,
    brute_suffix_sort,
    per_position_lengths,
    reference_float,
    run_walk_total,
    suffix_lcp,
    suffix_refs,
)
from rleacs.rle import FIRST_SYMBOL_ID, RleSeq, decode, encode
from rleacs.suffixes import SuffixOrder, build_suffix_order
from rleacs.symbol_tries import Column, LeafBlocks, SymbolTrie, exact_ints, leaf_blocks

ALPHABET_SIZES = (2, 4, 20)
RUN_LENGTH_MEANS = (1.5, 4.0, 32.0)
FAMILY_EVERY = 4
STRETCH = 1 << 60


def _sweep_compact_trie(leaf_depths: list[int], gaps: list[int]):
    """Build a compact trie from ordered leaf depths and between-leaf lcps.

    One left-to-right sweep with a stack holding the rightmost root path in
    strictly increasing str_depth; a node's parent is fixed the moment it
    leaves the stack. Returns (parent, str_depth, leaf_nodes); node 0 is the
    root, at str_depth 0. The reference for the engine's array build
    (symbol_tries._compact_trie).
    """
    parent = [-1]
    str_depth = [0]
    stack = [0]
    leaf_nodes = []
    for k, depth in enumerate(leaf_depths):
        cut = gaps[k - 1] if k else 0
        last = -1
        while str_depth[stack[-1]] > cut:
            node = stack.pop()
            if last != -1:
                parent[last] = node
            last = node
        top = stack[-1]
        if last != -1:
            if str_depth[top] == cut:
                parent[last] = top
            else:
                mid = len(parent)
                parent.append(-1)
                str_depth.append(cut)
                parent[last] = mid
                stack.append(mid)
        leaf = len(parent)
        parent.append(-1)
        str_depth.append(depth)
        leaf_nodes.append(leaf)
        stack.append(leaf)
    last = -1
    while stack:
        node = stack.pop()
        if last != -1:
            parent[last] = node
        last = node
    return parent, str_depth, leaf_nodes


@dataclass(frozen=True)
class VerifyReport:
    """Trials passed, the first failure, and what the checks covered.

    int64_builds counts the pair and family builds that took the int64 path,
    each matched against an exact limb rebuild; exact_builds those past the
    bound. runs_over_m and runs_without_m count the runs of the checked pair
    directions with f > m > 0 and with m == 0, m the other sequence's
    longest run of their symbol. refusals counts the pairs without a
    distance (a side shorter than 2, or no common symbol) whose refusal by
    dist and dist_matrix was checked; every other pair's distance is.
    """

    passed: int
    total: int
    failure: str | None = None
    failure_record: str | None = None
    int64_builds: int = 0
    exact_builds: int = 0
    runs_over_m: int = 0
    runs_without_m: int = 0
    refusals: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def coverage(self) -> str:
        return (
            f"builds: {self.int64_builds} int64, each matched by an exact rebuild, "
            f"{self.exact_builds} exact; runs: {self.runs_over_m} with f > m > 0, "
            f"{self.runs_without_m} with m == 0; distance: {self.refusals} "
            "refusals checked (a side shorter than 2 or no common substring)"
        )


def geometric(rng: random.Random, mean: float) -> int:
    """Run length >= 1 with the given mean."""
    if mean <= 1.0:
        return 1
    q = 1.0 / mean
    u = rng.random()
    return 1 + int(math.log1p(-u) / math.log1p(-q))


def random_text(rng: random.Random, n: int, alphabet_size: int, mean_run: float) -> str:
    """Random text of length n with geometric run lengths, runs kept maximal."""
    symbols = ascii_lowercase[:alphabet_size]
    if alphabet_size == 1:
        # every later run would repeat the first's symbol
        return symbols * n
    out: list[str] = []
    prev = None
    while len(out) < n:
        ch = rng.choice(symbols)
        if ch == prev:
            continue
        out.extend(ch * geometric(rng, mean_run))
        prev = ch
    return "".join(out[:n])


def rle_record(seq: RleSeq) -> str:
    """Render one sequence in the run-length text format, for replaying.

    ValueError if the format cannot carry the sequence: every symbol must be
    printable, neither whitespace nor an ASCII digit, and the first must not
    be ">", which would make the body line a header.
    """
    symbols = [chr(sym - FIRST_SYMBOL_ID) for sym in seq.runs[:, 0].tolist()]
    for ch in dict.fromkeys(symbols):
        if not ch.isprintable() or ch.isspace() or ch in "0123456789":
            raise ValueError(f"{seq.name}: symbol {ch!r} has no run-length token")
    if symbols[0] == ">":
        raise ValueError(f"{seq.name}: a first symbol '>' would read as a header line")
    body = " ".join(f"{ch}{n}" for ch, n in zip(symbols, seq.runs[:, 1].tolist()))
    return f">{seq.name}\n{body}"


def _leaf_intervals(parent: list[int], str_depth: list[int], leaves: list[int]):
    """Leaf-rank interval [lo, hi] under every node, children before parents."""
    n = len(parent)
    lo = [n] * n
    hi = [-1] * n
    for rank, leaf in enumerate(leaves):
        lo[leaf] = hi[leaf] = rank
    for v in sorted(range(n), key=str_depth.__getitem__, reverse=True):
        p = parent[v]
        if p >= 0:
            lo[p] = min(lo[p], lo[v])
            hi[p] = max(hi[p], hi[v])
    return lo, hi


def _keyed_shape(parent: list[int], str_depth: list[int], leaves: list[int]) -> dict:
    """Each node's (first leaf, last leaf, str_depth) mapped to its parent's, None at the root.

    leaves lists the leaf nodes in leaf order, so the keys do not depend on
    how either build numbers its nodes.
    """
    lo, hi = _leaf_intervals(parent, str_depth, leaves)
    keys = list(zip(lo, hi, str_depth))
    return {keys[v]: keys[p] if p >= 0 else None for v, p in enumerate(parent)}


def _whole_trie(trie: SymbolTrie, blocks: LeafBlocks, depths: list[int]):
    """(parent, str_depth, leaves) of trie with its leaves, as Python lists:
    leaf k of blocks, at depth depths[k], is node trie.internal + k, under
    the run_parents entry of the run its suffix follows."""
    leaves = list(range(trie.internal, trie.internal + len(depths)))
    parent = trie.parent.tolist() + trie.run_parents[blocks.tokens - 1].tolist()
    return parent, trie.str_depth.tolist() + depths, leaves


def _sweep_mismatches(label: str, parent, str_depth, leaves, depths, gaps) -> list[str]:
    """The trie against the sweep's from the same leaf depths and gaps, node for node."""
    reference = _sweep_compact_trie(depths, gaps)
    if len(parent) != len(reference[0]):
        return [f"{label}: {len(parent)} nodes, the sweep's trie {len(reference[0])}"]
    want = _keyed_shape(*reference)
    got = _keyed_shape(parent, str_depth, leaves)
    # equal counts, so a key two nodes share leaves one of the sweep's missing
    wrong = [key for key in sorted(want) if got.get(key, ()) != want[key]]
    if wrong:
        key = wrong[0]
        return [
            f"{label}: {len(wrong)} nodes differ from the sweep's trie, first {key} "
            f"under {got.get(key, 'no such node')}, not {want[key]}"
        ]
    return []


def _interval_min_mismatches(label: str, parent, str_depth, leaves, gaps: list[int]) -> list[str]:
    """Check str_depth of every internal node against the gap array it must summarize."""
    failures = []
    lo, hi = _leaf_intervals(parent, str_depth, leaves)
    is_leaf = set(leaves)
    # The root is synthetic (empty string, depth 0); a subset of suffixes may
    # share a nonzero prefix, so the exact-min law binds only below it.
    spans = [
        (v, lo[v], hi[v])
        for v in range(len(parent))
        if v not in is_leaf and hi[v] > lo[v] and parent[v] >= 0
    ]
    if spans:
        arr = np.array(gaps + [max(gaps) + 1 if gaps else 1], dtype=np.int64)
        flat = np.array([(s[1], s[2]) for s in spans], dtype=np.int64).ravel()
        mins = np.minimum.reduceat(arr, flat)[::2]
        for (v, a, b), got in zip(spans, mins.tolist()):
            if str_depth[v] != got:
                failures.append(
                    f"{label}: node {v} str_depth {str_depth[v]} != interval min {got} over [{a},{b})"
                )
    return failures


def check_pair(
    first: RleSeq,
    second: RleSeq,
    *,
    engine_factory=AcsEngine,
    budget: OracleBudget = DEFAULT_BUDGET,
    deep: bool = True,
    coverage: Counter | None = None,
) -> list[str]:
    """All cross-checks for one pair; returns failure descriptions.

    The forward direction (first scored against second) gets every check;
    the reverse direction, answered from the same build, is checked by its
    total and run sums against the brute scan and by its total against
    engine_factory(second, first). Both columns' totals, and with deep the
    columns themselves, are matched against an exact limb rebuild. A pair
    without a distance must be refused by dist and dist_matrix with the
    reason. coverage, if given, counts the build's path, the run cases and
    the refusals (see VerifyReport).

    A crash inside the engine under test is itself a finding, so engine
    exceptions are reported as failures rather than raised. Oracle budget
    errors still propagate: they mean the harness was misconfigured.
    """
    try:
        engine = engine_factory(first, second)
    except Exception as exc:
        return [f"engine build raised {type(exc).__name__}: {exc}"]
    first, second = engine.seqs
    x_text = decode(first)
    y_text = decode(second)
    brute_order = brute_suffix_sort(first, second, budget=budget)
    brute_lengths = brute_match_lengths(x_text, y_text, budget)
    brute_back = brute_match_lengths(y_text, x_text, budget)
    try:
        return _compare(
            engine, brute_order, brute_lengths, brute_back,
            engine_factory=engine_factory, deep=deep,
            coverage=Counter() if coverage is None else coverage,
        )
    except Exception as exc:
        return [f"engine query raised {type(exc).__name__}: {exc}"]


def _compare(
    engine,
    brute_order,
    brute_lengths: list[int],
    brute_back: list[int],
    *,
    engine_factory,
    deep: bool,
    coverage: Counter,
) -> list[str]:
    failures: list[str] = []
    first, second = engine.seqs
    x_len = first.content_length
    y_len = second.content_length
    order = build_suffix_order(first, second)
    if not np.array_equal(order.tokens, brute_order.tokens):
        failures.append("suffix order differs from brute sort")
    if not np.array_equal(order.dlcp, brute_order.dlcp):
        failures.append("suffix lcp array differs from brute sort")
    if not np.array_equal(order.suffix_lengths, brute_order.suffix_lengths):
        failures.append("suffix lengths differ from brute sort")

    # columns[j] answers the other sequence against sequence j
    columns = (engine.column(0), engine.column(1))
    lsum = engine.total(0, columns[1])
    if lsum != sum(brute_lengths):
        failures.append(f"lsum {lsum} != brute {sum(brute_lengths)}")
    if not 0 <= lsum <= x_len * y_len:
        failures.append(f"lsum {lsum} outside [0, x*y]")

    per_position = per_position_lengths(engine, 0, columns[1], cap=x_len)
    if per_position != brute_lengths:
        failures.append("per-position lengths differ from brute scan")
    if sum(per_position) != lsum:
        failures.append("per-position sum differs from per-run sum")
    run_sums = engine.run_sums(0, columns[1])
    if run_sums != _by_run(per_position, first):
        failures.append("run sums do not match their positions")

    sym, f = first.runs[-1].tolist()
    m = int(columns[1].max_run[sym])
    closed = 0 if m == 0 else (f * (f + 1) // 2 if f <= m else m * f - m * (m - 1) // 2)
    if run_sums[-1] != closed:
        failures.append(f"final run sum {run_sums[-1]} != closed form {closed}")

    itself = engine_factory(first, first)
    acs_xx = itself.total(0, itself.column(1))
    self_value = Fraction(acs_xx, x_len)
    if self_value != acs_self(x_len):
        failures.append(f"self total {acs_xx} != closed form {x_len * (x_len + 1) // 2}")
    elif dist_value(x_len, x_len, self_value, self_value) != 0.0:
        failures.append("self distance not zero")

    back = engine.total(1, columns[0])
    if back != sum(brute_back):
        failures.append(f"reverse lsum {back} != brute {sum(brute_back)}")
    if engine.run_sums(1, columns[0]) != _by_run(brute_back, second):
        failures.append("reverse run sums do not match the brute positions")
    swapped = engine_factory(second, first)
    separate = swapped.total(0, swapped.column(1))
    if back != separate:
        failures.append(f"reverse lsum {back} != separate reverse build {separate}")

    if x_len < 2 or y_len < 2 or lsum == 0 or back == 0:
        failures.extend(_refusal_checks(first, second))
        coverage["refusals"] += 1
    else:
        acs_xy = Fraction(lsum, x_len)
        acs_yx = Fraction(back, y_len)
        forward = dist_value(x_len, y_len, acs_xy, acs_yx)
        backward = dist_value(y_len, x_len, acs_yx, acs_xy)
        if forward.hex() != backward.hex():
            failures.append("distance not symmetric")
        ref = reference_float(x_len, y_len, acs_xy, acs_yx)
        if forward != ref:
            failures.append(f"distance {forward!r} is not the correctly rounded {ref!r}")

    coverage[_path(engine.trie)] += 1
    for i, seq in enumerate(engine.seqs):
        m = columns[1 - i].max_run[seq.runs[:, 0]]
        coverage["runs_over_m"] += int(((seq.runs[:, 1] > m) & (m > 0)).sum())
        coverage["runs_without_m"] += int((m == 0).sum())
    exact = AcsEngine(first, second, _exact=True)
    for j, column in enumerate(columns):
        failures.extend(_exact_checks("pair", engine, exact, j, column, deep))
    if deep:
        failures.extend(_structural_checks(engine, columns, order))
    return failures


def _by_run(lengths: list[int], seq: RleSeq) -> list[int]:
    """Per-position lengths of seq summed over each of its runs."""
    bounds = list(accumulate(seq.runs[:, 1].tolist(), initial=0))
    return [sum(lengths[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _refusal_checks(first: RleSeq, second: RleSeq) -> list[str]:
    """dist and dist_matrix refuse a pair without a distance, with its reason."""
    short = min(first.content_length, second.content_length) < 2
    reason = "sequence too short" if short else "no common substring"
    failures = []
    named = f"pair {first.name}/{second.name}: {reason}"
    for label, call, expect in (
        ("dist", lambda: dist(first, second), reason),
        ("dist_matrix", lambda: dist_matrix([first, second]), named),
    ):
        try:
            call()
        except ValueError as exc:
            if str(exc) != expect:
                failures.append(f"{label} refused with {str(exc)!r}, not {expect!r}")
        else:
            failures.append(f"{label} gave a distance, not {expect!r}")
    return failures


def _path(trie: SymbolTrie) -> str:
    return "int64_builds" if trie.int64 else "exact_builds"


def _exact_checks(
    label: str, engine: AcsEngine, exact: AcsEngine, j: int, column: Column, deep: bool
) -> list[str]:
    """The totals against seqs[j], and with deep its column, against the limb rebuild's.

    The weights are compared by value, through exact_ints, since the two
    paths lay them out differently.
    """
    failures = []
    rebuilt = exact.column(j)
    if deep and (
        column.freq.tolist() != rebuilt.freq.tolist()
        or exact_ints(column.weight) != exact_ints(rebuilt.weight)
        or column.max_run.tolist() != rebuilt.max_run.tolist()
        or column.supported.tolist() != rebuilt.supported.tolist()
    ):
        failures.append(f"{label} column {j} differs from the exact path's")
    if engine.totals(j, column) != exact.totals(j, rebuilt):
        failures.append(f"{label} totals against {j} differ from the exact path's")
    return failures


def brute_column(trie: SymbolTrie, parents, lengths) -> tuple[list[int], list[int]]:
    """(freq, weight) of every node of trie, as Python ints, when the run before
    a leaf under each of parents has the length beside it and every other
    leaf's run is another sequence's: freq is the largest such length below the
    node, weight the sum of freq * (str_depth - str_depth[parent]) over its
    root path. A parent is shallower than its children, so deeper nodes go first."""
    parent, depth = trie.parent.tolist(), trie.str_depth.tolist()
    freq = [0] * len(parent)
    for p, length in zip(np.asarray(parents).tolist(), np.asarray(lengths).tolist()):
        freq[p] = max(freq[p], length)
    by_depth = sorted(range(1, len(parent)), key=depth.__getitem__)
    for v in reversed(by_depth):
        freq[parent[v]] = max(freq[parent[v]], freq[v])
    weight = [0] * len(parent)
    for v in by_depth:
        weight[v] = weight[parent[v]] + freq[v] * (depth[v] - depth[parent[v]])
    return freq, weight


def _column_checks(label: str, engine: AcsEngine, column: Column, j: int) -> list[str]:
    """The column covers the trie's nodes and is brute_column's for sequence
    j's runs: freq the subtree maximum of the preceding runs, so it never
    decreases toward the root, weight its telescoped root-path sum, and
    supported at each node the first node with that freq >= 1 on a walk up
    from it (the root, if none below it is)."""
    trie = engine.trie
    internal = trie.internal
    shapes = (column.freq.shape, column.supported.shape, column.weight.shape[-1:])
    if shapes != ((internal,),) * 3:
        return [f"{label}column covers {len(column.freq)} nodes, not the {internal} internal ones"]
    failures = []
    freq = column.freq.tolist()
    weight = exact_ints(column.weight)
    parents = trie.run_parents[engine.record(j)]
    best, telescoped = brute_column(trie, parents, engine.seqs[j].runs[:, 1])
    wrong = [v for v in range(internal) if freq[v] != best[v]]
    if wrong:
        v = wrong[0]
        failures.append(
            f"{label}freq at node {v} is {freq[v]}, not the subtree maximum {best[v]} "
            "of the preceding runs"
        )
    wrong = [v for v in range(internal) if weight[v] != telescoped[v]]
    if wrong:
        failures.append(f"{label}weight at node {wrong[0]} breaks telescoping")
    parent = trie.parent.tolist()
    walked = []
    for v in range(internal):
        while v and best[v] < 1:
            v = parent[v]
        walked.append(v)
    supported = column.supported.tolist()
    wrong = [v for v in range(internal) if supported[v] != walked[v]]
    if wrong:
        v = wrong[0]
        failures.append(
            f"{label}supported at node {v} is {supported[v]}, not {walked[v]}, "
            "its deepest ancestor-or-self with a preceding run"
        )
    return failures


def _structural_checks(
    engine: AcsEngine, columns: tuple[Column, Column], order: SuffixOrder
) -> list[str]:
    """Invariants of the pair engine's query trie and two columns, built on
    order: its leaves are the suffixes that follow a run, in symbol blocks;
    with each leaf under its run's parent, the trie is the sweep's over the
    same leaves and gaps, and its str_depths are the interval mins of the
    run walker's gaps; each column is brute_column's."""
    failures: list[str] = []
    refs = suffix_refs(order)
    blocks = leaf_blocks(order)
    rank_of = {t: k for k, t in enumerate(order.tokens.tolist())}
    leaf_ranks = [rank_of[t] for t in blocks.tokens.tolist()]
    if sorted(leaf_ranks) != [k for k, ref in enumerate(refs) if ref.run >= 2]:
        failures.append("query trie leaves are not the suffixes that follow a run")
        return failures
    runs = tuple(seq.runs.tolist() for seq in engine.seqs)
    leaf_refs = [refs[k] for k in leaf_ranks]
    # leaf depths as sums of the runs from the leaf's own on (a suffix ends
    # in its length-1 terminator)
    tails = [list(accumulate((n for _, n in rows[::-1]), initial=1))[::-1] for rows in runs]
    depths = [tails[ref.seq][ref.run - 1] for ref in leaf_refs]
    shape = _whole_trie(engine.trie, blocks, depths)
    # the sweep, from the same leaves and gaps, gives the same trie
    failures.extend(_sweep_mismatches("query trie", *shape, depths, blocks.gaps.tolist()))

    # the forward column counts the second sequence's runs, the reverse one the first's
    for j, prefix in ((1, ""), (0, "reverse ")):
        failures.extend(_column_checks(f"query trie: {prefix}", engine, columns[j], j))

    preceding = [runs[ref.seq][ref.run - 2] for ref in leaf_refs]
    syms = [sym for sym, _ in preceding]
    if sorted(zip(syms, leaf_ranks)) != list(zip(syms, leaf_ranks)):
        failures.append("query trie: leaves are not in symbol blocks of ascending rank")

    # gap lcps recomputed with the run walker inside a block, 0 between
    # blocks, then interval mins
    gaps = [
        suffix_lcp(*engine.seqs, a, b) if s == t else 0
        for a, b, s, t in zip(leaf_refs, leaf_refs[1:], syms, syms[1:])
    ]
    failures.extend(_interval_min_mismatches("query trie", *shape, gaps))
    return failures


def check_family(
    seqs: list[RleSeq],
    *,
    engine_factory=AcsEngine,
    budget: OracleBudget = DEFAULT_BUDGET,
    deep: bool = True,
    coverage: Counter | None = None,
) -> list[str]:
    """Every ordered pair from one engine over the family, against the brute scan.

    Each sequence's column is annotated and answered as dist_matrix does
    it, and every other sequence's total and run sums are matched against
    the brute per-position lengths. With deep, each column is also checked
    against brute_column for that sequence's runs. Totals, and with deep
    columns, are matched against an exact limb rebuild. Engine exceptions
    are failures.
    """
    seqs = tuple(seqs)
    texts = [decode(seq) for seq in seqs]
    failures: list[str] = []
    try:
        engine = engine_factory(*seqs)
        exact = AcsEngine(*seqs, _exact=True)
        if coverage is not None:
            coverage[_path(engine.trie)] += 1
        for j, seq in enumerate(seqs):
            column = engine.column(j)
            if deep:
                failures.extend(_column_checks(f"family column {j}: ", engine, column, j))
            failures.extend(_exact_checks("family", engine, exact, j, column, deep))
            for i, total in enumerate(engine.totals(j, column)):
                if i == j:
                    continue
                lengths = brute_match_lengths(texts[i], texts[j], budget)
                if total != sum(lengths):
                    failures.append(f"family total {i}->{j} {total} != brute {sum(lengths)}")
                if engine.run_sums(i, column) != _by_run(lengths, seqs[i]):
                    failures.append(f"family run sums {i}->{j} differ from the brute positions")
    except Exception as exc:
        return [f"family engine raised {type(exc).__name__}: {exc}"]
    return failures


def random_family(rng: random.Random, n_max: int, alphabet_size: int, mean_run: float) -> list[str]:
    """3 to 5 texts: a repeated one, and one that lacks a symbol the first text has."""

    def draw() -> str:
        return random_text(rng, rng.randint(1, n_max), alphabet_size, mean_run)

    texts = [draw() for _ in range(rng.randint(1, 3))]
    missing = texts[0][0]
    texts.append(draw().replace(missing, "b" if missing == "a" else "a"))
    texts.append(rng.choice(texts))
    rng.shuffle(texts)
    return texts


def stretched(seq: RleSeq) -> RleSeq:
    """seq with its longest run STRETCH longer."""
    runs = seq.runs.copy()
    runs[runs[:, 1].argmax(), 1] += STRETCH
    return RleSeq(seq.name, runs)


def check_run_walk(
    first: RleSeq, second: RleSeq, *, engine_factory=AcsEngine, coverage: Counter | None = None
) -> list[str]:
    """Both totals of one build against oracle.run_walk_total, which never decodes.

    For pairs too long for the brute scan, such as those past the int64
    bound. Engine exceptions are failures.
    """
    try:
        engine = engine_factory(first, second)
        totals = (engine.total(0, engine.column(1)), engine.total(1, engine.column(0)))
    except Exception as exc:
        return [f"engine raised {type(exc).__name__}: {exc}"]
    if coverage is not None:
        coverage[_path(engine.trie)] += 1
    walks = (run_walk_total(first, second), run_walk_total(second, first))
    return [
        f"{prefix}lsum {got} != run walk {want}"
        for prefix, got, want in zip(("", "reverse "), totals, walks)
        if got != want
    ]


def run_verification(
    seed: int = 42,
    trials: int = 100,
    n_max: int = 500,
    *,
    engine_factory=AcsEngine,
    deep: bool = True,
) -> VerifyReport:
    """Run seeded random trials; stop at the first failing pair or family.

    Families come from their own stream, so the pairs of a seed do not
    depend on them; their records are at most a quarter of n_max long, and
    the first two, stretched, are the trial's pair past the int64 bound.
    """
    coverage: Counter = Counter()
    rng = random.Random(seed)
    family_rng = random.Random(f"family:{seed}")
    cap = max(n_max, DEFAULT_BUDGET.max_len)
    budget = OracleBudget(max_len=cap, max_pair_product=cap * cap)
    for trial in range(trials):
        alphabet_size = ALPHABET_SIZES[trial % len(ALPHABET_SIZES)]
        mean_run = RUN_LENGTH_MEANS[(trial // len(ALPHABET_SIZES)) % len(RUN_LENGTH_MEANS)]
        x_text = random_text(rng, rng.randint(1, n_max), alphabet_size, mean_run)
        y_text = random_text(rng, rng.randint(1, n_max), alphabet_size, mean_run)
        first = encode(x_text, f"X{trial}")
        second = encode(y_text, f"Y{trial}")
        seqs = [first, second]
        failures = check_pair(
            first, second, engine_factory=engine_factory, budget=budget, deep=deep,
            coverage=coverage,
        )
        if not failures and trial % FAMILY_EVERY == FAMILY_EVERY - 1:
            texts = random_family(family_rng, max(n_max // 4, 1), alphabet_size, mean_run)
            seqs = [encode(text, f"F{trial}.{j}") for j, text in enumerate(texts)]
            failures = [
                f"family: {f}"
                for f in check_family(
                    seqs, engine_factory=engine_factory, budget=budget, deep=deep, coverage=coverage
                )
            ]
            if not failures:
                seqs = [stretched(seq) for seq in seqs[:2]]
                failures = [
                    f"stretched pair: {f}"
                    for f in check_run_walk(*seqs, engine_factory=engine_factory, coverage=coverage)
                ]
        if failures:
            record = "\n".join(map(rle_record, seqs))
            return VerifyReport(
                passed=trial,
                total=trials,
                failure=f"trial {trial}: " + "; ".join(failures),
                failure_record=record,
                **coverage,
            )
    return VerifyReport(passed=trials, total=trials, **coverage)
