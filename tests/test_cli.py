"""End-to-end CLI tests: exit codes, report formats, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rleacs import cli
from rleacs.bench import DOUBLING_MAX, DOUBLING_MIN, doubling_sweep
from rleacs.cli import (
    BENCH_RUNS_MAX,
    BENCH_RUNS_MIN,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    format_phylip,
    main,
)


@pytest.fixture()
def pair_fasta(tmp_path):
    path = tmp_path / "pair.fa"
    path.write_text(">X\naab\n>Y\nab\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def trio_fasta(tmp_path):
    path = tmp_path / "trio.fa"
    path.write_text(">alpha\naabba\n>beta\nabab\n>gamma\nbbbaa\n", encoding="utf-8")
    return str(path)


def test_acs_report(pair_fasta, capsys):
    assert main(["acs", pair_fasta]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "X: X (runs=2, length=3)"
    assert out[1] == "Y: Y (runs=2, length=2)"
    assert out[2] == "N: 4"
    assert out[3] == "ACS = 4/3 ≈ 1.333333"


def test_acs_identical_files_hits_self_closed_form(tmp_path, capsys):
    a = tmp_path / "a.fa"
    a.write_text(">L\naab\n", encoding="utf-8")
    b = tmp_path / "b.fa"
    b.write_text(">R\naab\n", encoding="utf-8")
    assert main(["acs", str(a), str(b)]) == EXIT_OK
    out = capsys.readouterr().out
    # identical content: average is (x+1)/2 = 2 for x = 3
    assert "ACS = 6/3 ≈ 2.000000" in out


def test_acs_disjoint_alphabets_is_zero(tmp_path, capsys):
    path = tmp_path / "disjoint.fa"
    path.write_text(">X\naaa\n>Y\nbb\n", encoding="utf-8")
    assert main(["acs", str(path)]) == EXIT_OK
    assert "ACS = 0/3 ≈ 0.000000" in capsys.readouterr().out


def test_acs_out_tsv(pair_fasta, tmp_path, capsys):
    out_path = tmp_path / "acs.tsv"
    assert main(["acs", pair_fasta, "--out", str(out_path)]) == EXIT_OK
    capsys.readouterr()
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t") == [
        "x", "y", "runs_x", "runs_y", "length_x", "length_y", "lsum", "acs", "acs_decimal",
    ]
    assert lines[1].split("\t")[:8] == ["X", "Y", "2", "2", "3", "2", "4", "4/3"]


@pytest.mark.parametrize("command", ["acs", "dist", "matrix"])
def test_failed_out_write_prints_no_report(pair_fasta, tmp_path, capsys, command):
    # a directory cannot be written as a file: exit 2 with the error on
    # stderr, and no report on stdout
    assert main([command, pair_fasta, "--out", str(tmp_path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_dist_report_full_precision(pair_fasta, capsys):
    assert main(["dist", pair_fasta]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ACS(X,Y) = 4/3" in out
    assert "ACS(Y,X) = 3/2" in out
    assert "Dist = 0.12043215657900687 (log base e)" in out


def test_dist_log_base_flag(pair_fasta, capsys):
    assert main(["dist", pair_fasta, "--log-base", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Dist = 0.17374687506009634 (log base 2)" in out


def test_wrong_sequence_count_is_data_error(trio_fasta, capsys):
    assert main(["acs", trio_fasta]) == EXIT_DATA
    assert "expected exactly 2 sequences, found 3" in capsys.readouterr().err


def test_matrix_phylip_shape(trio_fasta, capsys):
    assert main(["matrix", trio_fasta]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3"
    assert len(lines) == 4
    names = []
    grid = []
    for line in lines[1:]:
        names.append(line[:10].strip())
        grid.append(line[10:].split())
    assert names == ["alpha", "beta", "gamma"]
    for i, row in enumerate(grid):
        assert len(row) == 3
        assert row[i] == "0.000000"
    for i in range(3):
        for j in range(3):
            assert grid[i][j] == grid[j][i]


def test_matrix_threads_byte_identical(trio_fasta, capsys):
    assert main(["matrix", trio_fasta, "--threads", "1"]) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(["matrix", trio_fasta, "--threads", "8"]) == EXIT_OK
    threaded = capsys.readouterr().out
    assert serial == threaded


def test_matrix_out_file(trio_fasta, tmp_path, capsys):
    out_path = tmp_path / "m.phy"
    assert main(["matrix", trio_fasta, "--out", str(out_path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out_path.read_text(encoding="utf-8").splitlines()[0] == "3"


def test_matrix_duplicate_names(tmp_path, capsys):
    path = tmp_path / "dup.fa"
    path.write_text(">same\nab\n>same\nba\n", encoding="utf-8")
    assert main(["matrix", str(path)]) == EXIT_DATA
    assert "duplicate sequence name: same" in capsys.readouterr().err


def test_matrix_long_name_rejected_unless_relaxed(tmp_path, capsys):
    path = tmp_path / "long.fa"
    path.write_text(">averylongname1\nab\n>b\nba\n", encoding="utf-8")
    assert main(["matrix", str(path)]) == EXIT_DATA
    assert "averylongname1" in capsys.readouterr().err
    assert main(["matrix", str(path), "--relaxed-names"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("averylongname1 0.000000")


def test_matrix_failing_pair_is_named(tmp_path, capsys):
    path = tmp_path / "disjoint.fa"
    path.write_text(">one\naaa\n>two\nbbb\n", encoding="utf-8")
    assert main(["matrix", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "pair one/two" in err


@pytest.mark.parametrize(
    "records, first_failure",
    [
        # p/q share no symbol; r is one character, so p/r and later pairs fail too
        (("aab", "ccdd", "a", "abc"), "pair p/q: no common substring"),
        (("aab", "a", "ccdd", "abc"), "pair p/q: sequence too short"),
        # the first failure in row order comes after a good pair and before
        # a too-short one
        (("ab", "ba", "cd", "c", "abc"), "pair p/r: no common substring"),
    ],
)
def test_matrix_reports_the_first_failing_pair_in_row_order(tmp_path, capsys, records, first_failure):
    path = tmp_path / "mixed.fa"
    names = "pqrst"
    path.write_text("".join(f">{n}\n{text}\n" for n, text in zip(names, records)), encoding="utf-8")
    runs = []
    for threads in ("1", "2", "4"):
        code = main(["matrix", str(path), "--threads", threads])
        runs.append((code, *capsys.readouterr()))
    assert runs == [(EXIT_DATA, "", f"error: {first_failure}\n")] * 3


def test_rle_format_and_line_numbered_errors(tmp_path, capsys):
    good = tmp_path / "good.rle"
    good.write_text(">X\na2 b1\n>Y\na1 b1\n", encoding="utf-8")
    assert main(["acs", str(good), "--format", "rle"]) == EXIT_OK
    assert "ACS = 4/3" in capsys.readouterr().out

    bad = tmp_path / "bad.rle"
    bad.write_text(">X\na2 zz9\n", encoding="utf-8")
    assert main(["acs", str(bad), "--format", "rle"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 2" in err and "zz9" in err

    # two tokens of 2^62 - 1 merge into one run past the length bound
    merged = tmp_path / "merged.rle"
    token = f"a{(1 << 62) - 1}"
    merged.write_text(f">X\n{token} {token}\n>Y\na1\n", encoding="utf-8")
    # the merge warning is one plain line, before the error it leads to
    assert main(["acs", str(merged), "--format", "rle"]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "warning: record X: merged 1 adjacent equal-symbol runs\n"
        f"error: X: decoded length {(1 << 63) - 1} exceeds bound {1 << 62}\n"
    )


def test_text_format_uses_file_stems(tmp_path, capsys):
    left = tmp_path / "left.txt"
    left.write_text("aab\n", encoding="utf-8")
    right = tmp_path / "right.txt"
    right.write_text("ab\n", encoding="utf-8")
    assert main(["acs", str(left), str(right), "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "X: left" in out and "Y: right" in out and "ACS = 4/3" in out


@pytest.mark.parametrize(
    "fmt, files",
    [
        ("fasta", {"pair.fa": ">X\naab\n>Y\nab\n"}),
        ("rle", {"pair.rle": ">X\na2 b1\n>Y\na1 b1\n"}),
        ("text", {"X.txt": "aab\n", "Y.txt": "ab\n"}),
    ],
)
def test_leading_byte_order_mark_is_not_input(tmp_path, capsys, fmt, files):
    paths = []
    for name, text in files.items():
        path = tmp_path / name
        # utf-8-sig writes the mark before the text
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        paths.append(str(path))
    assert main(["acs", *paths, "--format", fmt]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:4] == [
        "X: X (runs=2, length=3)",
        "Y: Y (runs=2, length=2)",
        "N: 4",
        "ACS = 4/3 ≈ 1.333333",
    ]


def test_verify_command(capsys):
    assert main(["verify", "--trials", "6", "--n-max", "60", "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "6/6 ok"
    assert main(["verify", "--trials", "0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0/0 ok"


def test_verify_reports_coverage_on_stderr(capsys):
    assert main(["verify", "--trials", "4", "--n-max", "60", "--seed", "5"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "4/4 ok\n"
    assert captured.err.startswith(
        "builds: 5 int64, each matched by an exact rebuild, 1 with limb runs; "
    )
    # the stretched pair's limb runs: each record's stretched run, its tail
    # of STRETCH z's and the y-run before it, whose sum passes 2^63
    assert ", 42 with m == 0, 6 on limbs; " in captured.err
    assert captured.err.endswith(
        "; distance: 0 refusals checked (a side shorter than 2 or no common substring)\n"
    )


def test_bench_smoke(capsys):
    assert main(["bench", "--n-max", "16384", "--trials", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "doubling sweep" in out
    # every engine row reports its internal nodes, lifting-row bytes per run
    # and the suffix order's own time
    assert "internal" in out and "rows_B/run" in out and "order_s" in out
    assert "run-length scaling" in out
    assert "periodic runs=16384" in out and "fibonacci runs=16384" in out
    assert "fasta ingest" in out and "chars_per_s" in out
    # every ingest row reports the traced peak of one read
    assert "peak_MiB" in out
    assert "run-length ingest" in out and "rle 2x16384 runs 16/line" in out
    assert "fasta family ingest" in out and "fasta family k=1000" in out
    assert "family k=40 1000 chars" in out and "family k=160 1000 chars" in out
    assert "distances_s" in out
    # the run-length pair is past the int64 bound, and its trie flags
    # limb runs; the unary pair fits int64 and flags none
    lines = out.splitlines()
    assert "limbs" in lines[lines.index("giant unary pair (decoded 10^9 vs 10^6)") + 1]
    pair = next(line for line in lines if line.startswith("rle pair 2x16384 "))
    unary = next(line for line in lines if line.startswith("unary 1e9 vs 1e6 "))
    assert int(pair.split()[-2]) > 0 and int(unary.split()[-2]) == 0
    assert "closed form check: ok" in out


def test_doubling_sweep_rejects_a_smaller_maximum():
    with pytest.raises(ValueError, match=f"max_tokens >= {DOUBLING_MIN}"):
        doubling_sweep(DOUBLING_MIN - 1)


def test_bench_bounds_match_the_doubling_sweep():
    assert (BENCH_RUNS_MIN, BENCH_RUNS_MAX) == (DOUBLING_MIN, DOUBLING_MAX)


def test_commands_other_than_bench_do_not_load_it(tmp_path):
    # rleacs.bench is about 85 KB of code and docstrings that only the bench
    # subcommand runs
    path = tmp_path / "pair.fa"
    path.write_text(">x\nacgtt\n>y\nacct\n")
    script = (
        "import sys\n"
        "from rleacs.cli import main\n"
        f"assert main(['dist', {str(path)!r}]) == 0\n"
        "print('rleacs.bench' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines()[-1] == "False"


def test_dist_and_matrix_load_neither_verify_nor_oracle(tmp_path):
    # the package imports rleacs.verify and rleacs.oracle on first use of
    # one of their names, and only cmd_verify uses one
    path = tmp_path / "trio.fa"
    path.write_text(">x\nacgtt\n>y\nacct\n>z\naac\n")
    script = (
        "import sys\n"
        "from rleacs.cli import main\n"
        f"assert main(['dist', '--format', 'text', {str(path)!r}, {str(path)!r}]) == 0\n"
        f"assert main(['matrix', {str(path)!r}]) == 0\n"
        "print(sorted(m for m in ('rleacs.verify', 'rleacs.oracle') if m in sys.modules))\n"
        "from rleacs import OracleBudget, brute_acs, check_pair\n"
        "import rleacs\n"
        "print(all(hasattr(rleacs, name) for name in rleacs.__all__))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines()[-2:] == ["[]", "True"]


def test_usage_errors_exit_one(capsys):
    assert main(["acs"]) == EXIT_USAGE
    assert main(["nosuch"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["dist", "x.fa", "--log-base", "7"]) == EXIT_USAGE
    assert main(["verify", "--trials", "-5"]) == EXIT_USAGE
    assert main(["verify", "--n-max", "0"]) == EXIT_USAGE
    assert main(["verify", "--n-max", "x"]) == EXIT_USAGE
    assert main(["matrix", "x.fa", "--threads", "-2"]) == EXIT_USAGE
    assert main(["bench", "--n-max", "1"]) == EXIT_USAGE
    assert main(["bench", "--n-max", "16383"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--threads: expected an integer >= 1, got '-2'" in err
    assert "--n-max: expected an integer >= 16384, got '1'" in err


def test_missing_file_exits_two(capsys):
    assert main(["acs", "/nonexistent/path.fa"]) == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "acs" in capsys.readouterr().out


def test_phylip_formatter_round_trip():
    names = ["a", "abcdefghij", "x"]
    grid = [
        [0.0, 0.25, 0.5],
        [0.25, 0.0, 0.125],
        [0.5, 0.125, 0.0],
    ]
    text = format_phylip(names, grid, relaxed=False)
    lines = text.splitlines()
    assert lines[0] == "3"
    parsed_names = [line[:10].strip() for line in lines[1:]]
    parsed = [[float(v) for v in line[10:].split()] for line in lines[1:]]
    assert parsed_names == names
    assert parsed == [[round(v, 6) for v in row] for row in grid]
