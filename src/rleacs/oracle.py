"""Independent brute-force reference implementations.

Everything here shares no logic with the fast path. The brute functions work
on decoded text in quadratic-or-worse time, guarded by explicit size budgets
so a typo in a caller cannot silently burn minutes; the suffix walkers
(suffix_compare, suffix_lcp) step through two suffixes run by run, so they
also reach decoded lengths no oracle could expand. These are trusted
baselines for testing and for the randomized cross-check harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rleacs.rle import RleSeq, Run, decode_ids, ensure_pair
from rleacs.suffixes import SuffixOrder, SuffixRef


@dataclass(frozen=True)
class OracleBudget:
    """Hard ceilings on the decoded sizes the oracle will accept."""

    max_len: int = 2000
    max_pair_product: int = 4_000_000

    def check(self, x_len: int, y_len: int) -> None:
        if x_len > self.max_len or y_len > self.max_len:
            raise ValueError(
                f"oracle budget exceeded: lengths ({x_len}, {y_len}), max {self.max_len}"
            )
        if x_len * y_len > self.max_pair_product:
            raise ValueError(
                f"oracle budget exceeded: product {x_len * y_len} > {self.max_pair_product}"
            )


DEFAULT_BUDGET = OracleBudget()


def _scan_match_lengths(x_text: str, y_text: str) -> list[int]:
    """Character-at-a-time definition, kept as a cross-check for the DP."""
    out = []
    for i in range(len(x_text)):
        best = 0
        for j in range(len(y_text)):
            k = 0
            while i + k < len(x_text) and j + k < len(y_text) and x_text[i + k] == y_text[j + k]:
                k += 1
            best = max(best, k)
        out.append(best)
    return out


def brute_match_lengths(
    x_text: str, y_text: str, budget: OracleBudget = DEFAULT_BUDGET
) -> list[int]:
    """For each start i in x, the longest prefix of x[i:] occurring anywhere in y.

    Row DP over match-extension counts: T[i][j] is the length of the longest
    common prefix of x[i:] and y[j:], computed from row i+1.
    """
    budget.check(len(x_text), len(y_text))
    if not x_text or not y_text:
        return [0] * len(x_text)
    x = np.frombuffer(x_text.encode("utf-32-le"), dtype=np.uint32)
    y = np.frombuffer(y_text.encode("utf-32-le"), dtype=np.uint32)
    lengths = np.zeros(len(x), dtype=np.int64)
    row = np.zeros(len(y), dtype=np.int64)
    for i in range(len(x) - 1, -1, -1):
        shifted = np.empty_like(row)
        shifted[:-1] = row[1:]
        shifted[-1] = 0
        row = np.where(y == x[i], shifted + 1, 0)
        lengths[i] = row.max()
    return lengths.tolist()


def brute_acs(x_text: str, y_text: str, budget: OracleBudget = DEFAULT_BUDGET) -> Fraction:
    """Average match length, as an exact rational."""
    lengths = brute_match_lengths(x_text, y_text, budget)
    return Fraction(sum(lengths), len(lengths))


def _lcp(a: str, b: str) -> int:
    """Longest common prefix length via doubling probes and slice equality.

    Slice comparisons run at C speed, so the cost is O(log L) comparisons of
    O(L) characters rather than a Python-level loop per character.
    """
    if not a or not b or a[0] != b[0]:
        return 0
    bound = min(len(a), len(b))
    hi = 1
    while hi < bound and a[:hi] == b[:hi]:
        hi *= 2
    hi = min(hi, bound)
    if a[:hi] == b[:hi]:
        return hi
    lo = 1
    # invariant: prefixes of length lo are equal, prefixes of length hi differ
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def suffix_runs(first: RleSeq, second: RleSeq, ref: SuffixRef) -> tuple[Run, ...]:
    """The runs of one suffix, its starting run through the sentinel."""
    return (first, second)[ref.seq].runs[ref.run - 1 :]


def suffix_compare(first: RleSeq, second: RleSeq, a: SuffixRef, b: SuffixRef) -> int:
    """Three-way decoded-order comparison of two suffixes, by walking runs.

    Runs are consumed in lockstep with partial remainders, so the cost is
    linear in runs rather than decoded characters.
    """
    runs_a = suffix_runs(first, second, a)
    runs_b = suffix_runs(first, second, b)
    ia = ib = 0
    rem_a = rem_b = 0
    while ia < len(runs_a) and ib < len(runs_b):
        sym_a, len_a = runs_a[ia]
        sym_b, len_b = runs_b[ib]
        if rem_a == 0:
            rem_a = len_a
        if rem_b == 0:
            rem_b = len_b
        if sym_a != sym_b:
            return -1 if sym_a < sym_b else 1
        step = min(rem_a, rem_b)
        rem_a -= step
        rem_b -= step
        if rem_a == 0:
            ia += 1
        if rem_b == 0:
            ib += 1
    if ia < len(runs_a) or rem_a:
        return 1
    if ib < len(runs_b) or rem_b:
        return -1
    return 0


def suffix_lcp(first: RleSeq, second: RleSeq, a: SuffixRef, b: SuffixRef) -> int:
    """Decoded longest-common-prefix length of two suffixes, by walking runs."""
    runs_a = suffix_runs(first, second, a)
    runs_b = suffix_runs(first, second, b)
    ia = ib = 0
    rem_a = rem_b = 0
    common = 0
    while ia < len(runs_a) and ib < len(runs_b):
        sym_a, len_a = runs_a[ia]
        sym_b, len_b = runs_b[ib]
        if rem_a == 0:
            rem_a = len_a
        if rem_b == 0:
            rem_b = len_b
        if sym_a != sym_b:
            break
        step = min(rem_a, rem_b)
        common += step
        rem_a -= step
        rem_b -= step
        if rem_a == 0:
            ia += 1
        if rem_b == 0:
            ib += 1
    return common


def brute_suffix_sort(
    first: RleSeq, second: RleSeq, budget: OracleBudget = DEFAULT_BUDGET
) -> SuffixOrder:
    """Sort all run-start suffixes of the decoded pair by plain string order.

    Produces the same SuffixOrder shape as the fast builder so the two can be
    compared field by field.
    """
    first, second = ensure_pair(first, second)
    budget.check(first.content_length, second.content_length)
    entries: list[tuple[str, int]] = []
    for seq in (first, second):
        text = decode_ids(seq)
        pos = 0
        for run in seq.runs:
            entries.append((text[pos:], len(entries)))
            pos += run.length
    entries.sort(key=lambda e: e[0])
    tokens = [token for _, token in entries]
    dlcp = [_lcp(entries[k - 1][0], entries[k][0]) for k in range(1, len(entries))]
    suffix_lengths = [len(text) for text, _ in entries]
    return SuffixOrder(
        first=first,
        second=second,
        tokens=tokens,
        dlcp=dlcp,
        suffix_lengths=suffix_lengths,
    )
