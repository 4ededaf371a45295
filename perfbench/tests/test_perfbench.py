"""Tests of the benchmark itself: span arithmetic, generators, output checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import calibrate
import checks
import layers
import run
from spans import Recorder, Span, Target, instrument, self_times, union_length
from workloads import VARIANTS, WORKLOADS

import rleacs.engine
import rleacs.suffixes
from rleacs import brute_acs, decode, parse_fasta
from rleacs.cli import main as cli_main


def span(id, parent, thread, name, start, end, cpu_start, cpu_end):
    s = Span(id, parent, thread, name, start, cpu_start)
    s.end, s.cpu_end = end, cpu_end
    return s


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 4), (1, 2), (3, 6), (8, 9)]) == 7


def test_self_times_nested_tree():
    spans = [
        span(1, None, 1, "a", 0, 10, 0, 9),
        span(2, 1, 1, "b", 1, 4, 1, 3.5),
        span(3, 2, 1, "c", 2, 3, 1.5, 2.5),
        span(4, 1, 1, "d", 5, 9, 4, 8),
    ]
    st = self_times(spans)
    assert st[1] == (3, 9 - 2.5 - 4)
    assert st[2] == (2, 1.5)
    assert st[3] == (1, 1)
    assert st[4] == (4, 4)
    assert sum(w for w, _ in st.values()) == 10


def test_self_times_two_threads():
    # the command thread waits while two workers overlap; a single shared
    # stack would subtract both workers from each other and go negative
    spans = [
        span(1, None, 1, "cmd", 0, 10, 0, 1),
        span(2, 1, 2, "dist", 1, 6, 0, 2.5),
        span(3, 2, 2, "acs", 2, 5, 0.5, 2),
        span(4, 1, 3, "dist", 3, 9, 0, 3),
    ]
    st = self_times(spans)
    assert st[1] == (10 - 8, 1)
    assert st[2] == (5 - 3, 2.5 - 1.5)
    assert st[3] == (3, 1.5)
    assert st[4] == (6, 3)
    assert all(w >= 0 and c >= 0 for w, c in st.values())


def test_recorder_links_worker_spans_to_command_span():
    recorder = Recorder()
    barrier = threading.Barrier(2)

    def worker():
        outer = recorder.open("dist")
        barrier.wait(timeout=10)
        inner = recorder.open("acs")
        recorder.close(inner)
        recorder.close(outer)

    root = recorder.open("cmd")
    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    recorder.close(root)
    by_name: dict[str, list[Span]] = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    assert [s.parent for s in by_name["dist"]] == [root.id, root.id]
    dist_ids = {s.id for s in by_name["dist"]}
    assert {s.parent for s in by_name["acs"]} == dist_ids
    by_id = {s.id: s for s in recorder.spans}
    assert all(by_id[s.parent].thread == s.thread for s in by_name["acs"])
    assert all(w >= -1e-9 and c >= -1e-9 for w, c in self_times(recorder.spans).values())


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return rc, out.getvalue()


def test_instrument_counts_calls_and_restores(tmp_path):
    original = rleacs.engine.build_suffix_order
    recorder = Recorder()
    path = _write(tmp_path, "pair.fasta", ">x\naabbab\n>y\nabbba\n")
    with instrument(recorder, layers.TARGETS) as absent:
        assert rleacs.engine.build_suffix_order is not original
        rc, _ = _cli(["matrix", path, path])
    assert absent == []
    assert rleacs.engine.build_suffix_order is original
    assert rleacs.suffixes.build_suffix_order is original
    assert "wrapper" not in repr(rleacs.engine.AcsEngine.__init__)
    summary = layers.summarize(recorder.spans)
    # duplicate names make matrix refuse the input: one error, no builds
    assert rc != 0
    assert summary["funcs"]["cli.cmd_matrix"]["errors"] == 1
    assert summary["funcs"]["suffixes.build_suffix_order"]["calls"] == 0


def test_instrument_summary_of_a_dist(tmp_path):
    recorder = Recorder()
    path = _write(tmp_path, "pair.fasta", ">x\naabbab\n>y\nabbba\n")
    with instrument(recorder, layers.TARGETS):
        rc, _ = _cli(["dist", path])
    assert rc == 0
    summary = layers.summarize(recorder.spans)
    funcs = summary["funcs"]
    assert funcs["engine.dist"]["calls"] == 1
    assert funcs["engine.AcsEngine.__init__"]["calls"] == 2
    assert funcs["symbol_tries.annotate"]["calls"] >= 2
    assert summary["counts"]["chars"] == 11
    # 4 + 3 runs plus one sentinel per sequence, in each of the two builds
    assert summary["counts"]["tokens"] == 2 * (5 + 4)
    assert summary["err_ulp"] < 4


def test_missing_function_is_absent_not_an_error():
    recorder = Recorder()
    gone = Target("suffixes", "build_trie_that_was_removed")
    with instrument(recorder, [gone, *layers.TARGETS[:1]]) as absent:
        pass
    assert absent == ["suffixes.build_trie_that_was_removed"]


def test_aggregate_reports_every_per_layer_metric(tmp_path):
    path = _write(tmp_path, "pair.fasta", ">x\naabbab\n>y\nabbba\n")
    traced, untraced = [], []
    for _ in range(2):
        recorder = Recorder()
        with instrument(recorder, layers.TARGETS):
            _cli(["dist", path])
        traced.append({"wall_s": 0.02, "summary": layers.summarize(recorder.spans)})
        untraced.append({"wall_s": 0.01, "cpu_s": 0.01})
    values = layers.aggregate(traced, untraced, "dist")
    assert set(values) == set(layers.PER_LAYER)
    assert values["engine.builds_per_dist"] == 2.0
    assert values["cli.cmd_dist.cpu_per_wall"] == 1.0
    assert values["cli.cmd_matrix.cpu_per_wall"] == 0.0
    assert values["trace.overhead_s"] == pytest.approx(0.01)


def test_scaled_time_is_at_the_reference_host_speed():
    assert calibrate.scaled(2.0, 2 * calibrate.REFERENCE_S) == pytest.approx(1.0)
    assert calibrate.scaled(0.5, calibrate.REFERENCE_S) == pytest.approx(0.5)
    assert calibrate.probe() > 0.0
    assert calibrate.probe(threads=2) > 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.generate(7)
    paths_a = first.write(tmp_path / "a")
    paths_b = workload.generate(7).write(tmp_path / "b")
    assert [p.read_bytes() for p in paths_a] == [p.read_bytes() for p in paths_b]
    assert workload.generate(7 + VARIANTS).files == first.files
    assert workload.generate(8).files != first.files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_miniature_generators_pass_the_oracle(name):
    workload = WORKLOADS[name]
    for seed in (0, 1):
        (text,) = workload.generate(seed, mini=True).files.values()
        sizes = workload.generate(seed, mini=True).sizes
        assert 0 < max(n for _, n in sizes.values()) <= 2000
        tally = run.Tally()
        run.oracle_checks(workload, seed, tally)
        assert tally.attempted == len(sizes) * (len(sizes) - 1)
        assert tally.failed == 0, tally.notes


def test_recorded_values_cover_every_variant_and_match_the_generators():
    table = json.loads((run.BENCH / "expected.json").read_text())
    assert table["variants"] == VARIANTS
    for name, workload in WORKLOADS.items():
        assert sorted(map(int, table["workloads"][name])) == list(range(VARIANTS))
        if name != "ingest_fasta_longruns":
            sizes = workload.generate(3).sizes
            assert table["workloads"][name]["3"]["sizes"] == {k: list(v) for k, v in sizes.items()}


def test_pair_workload_passes_int64():
    sizes = WORKLOADS["pair_rle_large"].generate(0).sizes
    lengths = [n for _, n in sizes.values()]
    # decoded lengths count the sentinel; both sit exactly at the bound
    assert [n + 1 for n in lengths] == [1 << 62, 1 << 62]
    assert sum(n + 1 for n in lengths) > (1 << 63) - 1


@pytest.fixture
def planted_wrong_total(monkeypatch):
    real_total = rleacs.engine.AcsEngine.total
    monkeypatch.setattr(rleacs.engine.AcsEngine, "total", lambda self: real_total(self) + 1)


def _anchor_failures(tmp_path) -> list[str]:
    path = _write(tmp_path, "anchor.rle", checks.ANCHOR_RLE)
    rc, text = _cli(["dist", "--format", "rle", path])
    assert rc == 0
    sizes, acs = checks.anchor_expected()
    return checks.check_dist(text, sizes, acs)


def test_anchor_passes(tmp_path):
    assert _anchor_failures(tmp_path) == []


def test_planted_wrong_total_fails_the_anchor_and_counts(tmp_path, planted_wrong_total):
    tally = run.Tally()
    tally.add("anchor", _anchor_failures(tmp_path))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "ACS(X,Y)" in tally.notes[0]


def _family(tmp_path):
    (text,) = WORKLOADS["matrix_fasta_family"].generate(0, mini=True).files.values()
    seqs, alphabet = parse_fasta(text)
    texts = {s.name: decode(s, alphabet) for s in seqs}
    sizes = {s.name: (s.run_count, s.content_length) for s in seqs}
    acs = {f"{a}|{b}": brute_acs(texts[a], texts[b]) for a in texts for b in texts if a != b}
    return _write(tmp_path, "family.fasta", text), sizes, acs


def test_matrix_check_against_oracle_values(tmp_path):
    path, sizes, acs = _family(tmp_path)
    rc, text = _cli(["matrix", "--threads", "2", path])
    assert rc == 0
    assert checks.check_matrix(text, sizes, acs) == []


def test_matrix_check_catches_a_planted_wrong_total(tmp_path, planted_wrong_total):
    path, sizes, acs = _family(tmp_path)
    rc, text = _cli(["matrix", path])
    assert rc == 0
    failures = checks.check_matrix(text, sizes, acs)
    assert failures and all(f.startswith("cell") for f in failures)


def test_dist_check_uses_addend_scale_tolerance():
    x, y = 1000, 1200
    acs_xy, acs_yx = Fraction(5000, x), Fraction(5100, y)
    ref, scale = checks.reference_dist(x, y, acs_xy, acs_yx)
    value = float(ref)
    text = "\n".join(
        [
            f"X: a (runs=10, length={x})",
            f"Y: b (runs=12, length={y})",
            f"ACS(X,Y) = {acs_xy}",
            f"ACS(Y,X) = {acs_yx}",
            f"ACS(X,X) = {Fraction(x + 1, 2)}",
            f"ACS(Y,Y) = {Fraction(y + 1, 2)}",
            f"Dist = {value!r} (log base e)",
        ]
    )
    sizes = {"a": (10, x), "b": (12, y)}
    acs = {"a|b": acs_xy, "b|a": acs_yx}
    assert checks.check_dist(text, sizes, acs) == []
    assert checks.ulp_error(value, ref) <= 0.5
    off = value + float(scale) * 1e-10
    bad = checks.check_dist(text.replace(repr(value), repr(off)), sizes, acs)
    assert len(bad) == 1 and bad[0].startswith("Dist")
    wrong = checks.check_dist(text, sizes, {"a|b": acs_xy + 1, "b|a": acs_yx})
    assert any(f.startswith("ACS(X,Y)") for f in wrong)
