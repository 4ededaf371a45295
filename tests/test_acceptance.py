"""Acceptance suite: seven criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Criteria 1, 3, 4, 6 and 7 share one seeded 1000-pair campaign (decoded
lengths up to 2000, alphabet sizes 2/4/20, geometric run-length means
1.5/4/32); criterion 2 is the worked micro-example and criterion 5 runs the
scaling benchmarks.
"""

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

from rleacs.bench import doubling_sweep, giant_unary, runlength_sweep
from rleacs.cli import main
from rleacs.engine import AcsEngine, acs, acs_self, dist, dist_value
from rleacs.oracle import (
    OracleBudget,
    brute_match_lengths,
    brute_suffix_sort,
    per_position_lengths,
    suffix_refs,
)
from rleacs.rle import encode
from rleacs.suffixes import build_suffix_order
from rleacs.verify import ALPHABET_SIZES, RUN_LENGTH_MEANS, _structural_checks, random_text

SEED = 97
PAIRS = 1000
N_MAX = 2000
BUDGET = OracleBudget(max_len=N_MAX, max_pair_product=N_MAX * N_MAX)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class Campaign:
    pairs: int = 0
    oracle_seconds: float = 0.0
    lsum_failures: list = field(default_factory=list)
    order_failures: list = field(default_factory=list)
    grouping_failures: list = field(default_factory=list)
    position_sum_failures: list = field(default_factory=list)
    closed_form_failures: list = field(default_factory=list)
    closed_low_hits: int = 0
    closed_high_hits: int = 0
    max_self_dist: float = 0.0
    max_asymmetry: float = 0.0
    axiom_failures: list = field(default_factory=list)
    structural_failures: list = field(default_factory=list)


@pytest.fixture(scope="module")
def campaign() -> Campaign:
    rng = random.Random(SEED)
    result = Campaign()
    for trial in range(PAIRS):
        sigma = ALPHABET_SIZES[trial % len(ALPHABET_SIZES)]
        mean = RUN_LENGTH_MEANS[(trial // len(ALPHABET_SIZES)) % len(RUN_LENGTH_MEANS)]
        x_text = random_text(rng, rng.randint(1, N_MAX), sigma, mean)
        y_text = random_text(rng, rng.randint(1, N_MAX), sigma, mean)
        first = encode(x_text, f"X{trial}")
        second = encode(y_text, f"Y{trial}")
        result.pairs += 1

        # the engine keeps no suffix order; this one is built for the checks
        order = build_suffix_order(first, second)

        # criterion 1: engine vs brute oracle, timed
        t0 = time.perf_counter()
        engine = AcsEngine(first, second)
        columns = (engine.column(0), engine.column(1))
        lsum = engine.total(0, columns[1])
        brute_order = brute_suffix_sort(first, second, budget=BUDGET)
        brute_l = brute_match_lengths(x_text, y_text, BUDGET)
        if lsum != sum(brute_l):
            result.lsum_failures.append(trial)
        if (
            suffix_refs(order) != suffix_refs(brute_order)
            or not np.array_equal(order.dlcp, brute_order.dlcp)
            or not np.array_equal(order.suffix_lengths, brute_order.suffix_lengths)
        ):
            result.order_failures.append(trial)
        result.oracle_seconds += time.perf_counter() - t0

        # criterion 3: per-position sums vs per-run sums, exact
        per_position = per_position_lengths(engine, 0, columns[1], cap=N_MAX)
        if sum(per_position) != lsum or per_position != brute_l:
            result.position_sum_failures.append(trial)
        run_sums = engine.run_sums(0, columns[1])
        pos = 0
        for i in range(first.run_count):
            f = int(first.runs[i, 1])
            if run_sums[i] != sum(per_position[pos : pos + f]):
                result.grouping_failures.append((trial, i + 1))
                break
            pos += f

        # criterion 4 (corpus half): final-run closed forms
        sym, f = first.runs[-1].tolist()
        m = int(columns[1].max_run[sym])
        if m == 0:
            expected = 0
        elif f <= m:
            expected = f * (f + 1) // 2
            result.closed_low_hits += 1
        else:
            expected = m * f - m * (m - 1) // 2
            result.closed_high_hits += 1
        if run_sums[-1] != expected:
            result.closed_form_failures.append(trial)

        # criterion 6: distance axioms from exact averages
        x_len, y_len = first.content_length, second.content_length
        if x_len >= 2 and y_len >= 2 and lsum > 0:
            swapped = AcsEngine(second, first)
            back = swapped.total(0, swapped.column(1))
            if back > 0:
                acs_xy = Fraction(lsum, x_len)
                acs_yx = Fraction(back, y_len)
                forward = dist_value(x_len, y_len, acs_xy, acs_yx)
                backward = dist_value(y_len, x_len, acs_yx, acs_xy)
                result.max_asymmetry = max(result.max_asymmetry, abs(forward - backward))
        itself = AcsEngine(first, first)
        self_total = itself.total(0, itself.column(1))
        self_avg = Fraction(self_total, x_len)
        if self_avg != acs_self(x_len):
            result.axiom_failures.append((trial, "self average"))
        result.max_self_dist = max(
            result.max_self_dist, abs(dist_value(x_len, x_len, self_avg, self_avg))
        )

        # criterion 7: structural invariants of the tries
        structural = _structural_checks(engine, columns, order)
        if structural:
            result.structural_failures.append((trial, structural[0]))
    return result


def test_criterion_1_oracle_equivalence(campaign):
    ok = (
        campaign.pairs >= 1000
        and not campaign.lsum_failures
        and not campaign.order_failures
        and campaign.oracle_seconds < 60.0
    )
    _report(
        1,
        ok,
        f"{campaign.pairs} pairs, lsum mismatches {len(campaign.lsum_failures)}, "
        f"order mismatches {len(campaign.order_failures)}, "
        f"oracle time {campaign.oracle_seconds:.1f}s < 60s",
    )


def test_criterion_2_worked_micro_example():
    first = encode("aab", "X")
    second = encode("ab", "Y")
    engine = AcsEngine(first, second)
    per_position = per_position_lengths(engine, 0, engine.column(1))
    run_sums = engine.run_sums(0, engine.column(1))
    forward = acs(first, second).value
    backward = acs(second, first).value
    value = dist(first, second, "e").value
    ok = (
        per_position == [1, 2, 1]
        and run_sums == [3, 1]
        and forward == Fraction(4, 3)
        and backward == Fraction(3, 2)
        and abs(value - 0.120432) <= 1e-6
        and abs(value - 0.12043215657900687) <= 1e-12
    )
    _report(
        2,
        ok,
        f"L={per_position}, A={run_sums}, ACS={forward} and {backward}, Dist={value:.9f}",
    )


def test_criterion_3_position_vs_run_agreement(campaign):
    ok = not campaign.position_sum_failures and not campaign.grouping_failures
    _report(
        3,
        ok,
        f"{campaign.pairs} pairs, position-sum mismatches "
        f"{len(campaign.position_sum_failures)}, grouping mismatches "
        f"{len(campaign.grouping_failures)}",
    )


def test_criterion_4_final_run_closed_forms(campaign):
    rng = random.Random(SEED + 1)
    extra_failures = []
    low_hits = high_hits = 0
    for trial in range(100):
        sigma = ALPHABET_SIZES[trial % len(ALPHABET_SIZES)]
        mean = RUN_LENGTH_MEANS[trial % len(RUN_LENGTH_MEANS)]
        x_text = random_text(rng, rng.randint(1, 300), sigma, mean)
        y_text = random_text(rng, rng.randint(1, 300), sigma, mean)
        first = encode(x_text, "X")
        second = encode(y_text, "Y")
        engine = AcsEngine(first, second)
        column = engine.column(1)
        sym, f = first.runs[-1].tolist()
        m = int(column.max_run[sym])
        if m == 0:
            expected = 0
        elif f <= m:
            expected = f * (f + 1) // 2
            low_hits += 1
        else:
            expected = m * f - m * (m - 1) // 2
            high_hits += 1
        if engine.run_sums(0, column)[-1] != expected:
            extra_failures.append(trial)
    ok = (
        not extra_failures
        and not campaign.closed_form_failures
        and low_hits > 0
        and high_hits > 0
    )
    _report(
        4,
        ok,
        f"100 dedicated inputs ({low_hits} within longest run, {high_hits} beyond) "
        f"+ {campaign.pairs} corpus finals, mismatches "
        f"{len(extra_failures) + len(campaign.closed_form_failures)}",
    )


def test_criterion_5_compressed_size_scaling():
    rows = doubling_sweep(1 << 17, seed=SEED, reps=7)
    ratios = [
        b.total_s / a.total_s if a.total_s > 0 else float("inf")
        for a, b in zip(rows, rows[1:])
    ]
    doubling_ok = len(rows) == 4 and all(r <= 2.6 for r in ratios)

    scale_rows = runlength_sweep(100_000, (10, 1_000_000), seed=SEED, reps=2)
    times = [r.total_s for r in scale_rows]
    scale_ratio = max(times) / min(times)
    scale_ok = scale_ratio <= 2.0

    giant_row, got, want = giant_unary()
    giant_ok = giant_row.total_s < 1.0 and got == want

    ok = doubling_ok and scale_ok and giant_ok
    _report(
        5,
        ok,
        f"doubling ratios {[f'{r:.2f}' for r in ratios]} (<= 2.6), "
        f"run-length scaling ratio {scale_ratio:.2f} (<= 2.0), "
        f"giant unary {giant_row.total_s * 1000:.1f}ms exact={got == want}",
    )


def test_criterion_6_distance_axioms(campaign, tmp_path, capsys):
    path = tmp_path / "axioms.fa"
    path.write_text(">alpha\naabba\n>beta\nabab\n>gamma\nbbbaa\n", encoding="utf-8")
    code = main(["matrix", str(path)])
    lines = capsys.readouterr().out.splitlines()
    diagonal = [line[10:].split()[i] for i, line in enumerate(lines[1:])]
    matrix_ok = code == 0 and diagonal == ["0.000000"] * 3
    ok = (
        not campaign.axiom_failures
        and campaign.max_self_dist <= 1e-12
        and campaign.max_asymmetry <= 1e-12
        and matrix_ok
    )
    _report(
        6,
        ok,
        f"max |Dist(X,X)| {campaign.max_self_dist:.2e}, "
        f"max asymmetry {campaign.max_asymmetry:.2e} (<= 1e-12), "
        f"matrix diagonal {'exact' if matrix_ok else 'WRONG'}",
    )


def test_criterion_7_structural_invariants(campaign):
    ok = not campaign.structural_failures
    first = campaign.structural_failures[0] if campaign.structural_failures else None
    _report(
        7,
        ok,
        f"{campaign.pairs} pairs, freq monotone + weight telescoping + "
        f"interval-min depth all hold"
        if ok
        else f"first failure {first}",
    )
