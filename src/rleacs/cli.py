"""Command-line front end: pairwise reports, distance matrices, verification.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable input, bad
sequences, failed preconditions), 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from rleacs.engine import acs, dist, dist_matrix
from rleacs.rle import (
    ParseError,
    RleSeq,
    build_rle_sequences,
    build_text_sequences,
    read_fasta_records,
    read_rle_records,
    read_text_record,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

PHYLIP_NAME_WIDTH = 10
# bench's --n-max bounds, bench.DOUBLING_MIN and bench.DOUBLING_MAX written
# out: only cmd_bench imports rleacs.bench, so no other command loads it
BENCH_RUNS_MIN = 1 << 14
BENCH_RUNS_MAX = 1 << 17


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, resolved from the parsed arguments."""

    paths: tuple[str, ...] = ()
    format: str = "fasta"
    log_base: str = "e"
    output: str = "phylip"
    out: str | None = None
    threads: int = 1
    seed: int = 42
    trials: int = 1000
    n_max: int = 500
    relaxed_names: bool = False


def load_sequences(config: RunConfig) -> tuple[list[RleSeq], str]:
    """Read every input path and encode all records, with their distinct characters
    in id order (build_text_sequences).

    Each warning, such as a merge of equal-symbol run tokens, goes to stderr
    as one "warning: <message>" line, in order, also when an error then ends
    the read.
    """
    if not config.paths:
        raise ValueError("no input files given")
    records = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for path in config.paths:
                # utf-8-sig drops a leading byte-order mark, which is not input
                with open(path, encoding="utf-8-sig") as fh:
                    if config.format == "rle":
                        records.extend(read_rle_records(fh))
                    elif config.format == "fasta":
                        records.extend(read_fasta_records(fh))
                    else:
                        records.append(read_text_record(fh, Path(path).stem))
            build = build_rle_sequences if config.format == "rle" else build_text_sequences
            return build(records)
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


def _load_pair(config: RunConfig) -> tuple[RleSeq, RleSeq]:
    seqs, _ = load_sequences(config)
    if len(seqs) != 2:
        raise ValueError(f"expected exactly 2 sequences, found {len(seqs)}")
    return seqs[0], seqs[1]


def _pair_header(first: RleSeq, second: RleSeq) -> list[str]:
    return [
        f"X: {first.name} (runs={first.run_count}, length={first.content_length})",
        f"Y: {second.name} (runs={second.run_count}, length={second.content_length})",
        f"N: {first.run_count + second.run_count}",
    ]


def _write_out(config: RunConfig, text: str) -> None:
    """Write --out's file; callers do it before printing, so a failed write prints nothing."""
    if config.out:
        Path(config.out).write_text(text, encoding="utf-8")


def cmd_acs(config: RunConfig) -> int:
    first, second = _load_pair(config)
    result = acs(first, second)
    header = "x\ty\truns_x\truns_y\tlength_x\tlength_y\tlsum\tacs\tacs_decimal"
    row = (
        f"{first.name}\t{second.name}\t{first.run_count}\t{second.run_count}"
        f"\t{first.content_length}\t{second.content_length}"
        f"\t{result.lsum}\t{result.lsum}/{result.x}\t{result.as_float!r}"
    )
    _write_out(config, f"{header}\n{row}\n")
    for line in _pair_header(first, second):
        print(line)
    print(f"ACS = {result.lsum}/{result.x} ≈ {result.as_float:.6f}")
    return EXIT_OK


def cmd_dist(config: RunConfig) -> int:
    first, second = _load_pair(config)
    result = dist(first, second, config.log_base)
    header = "x\ty\tlog_base\tacs_xy\tacs_yx\tacs_xx\tacs_yy\tdist"
    row = (
        f"{first.name}\t{second.name}\t{result.log_base}"
        f"\t{result.acs_xy}\t{result.acs_yx}\t{result.acs_xx}\t{result.acs_yy}"
        f"\t{result.value!r}"
    )
    _write_out(config, f"{header}\n{row}\n")
    for line in _pair_header(first, second):
        print(line)
    print(f"ACS(X,Y) = {result.acs_xy}")
    print(f"ACS(Y,X) = {result.acs_yx}")
    print(f"ACS(X,X) = {result.acs_xx}")
    print(f"ACS(Y,Y) = {result.acs_yy}")
    print(f"Dist = {result.value!r} (log base {result.log_base})")
    return EXIT_OK


def format_phylip(names: list[str], grid: list[list[float]], relaxed: bool) -> str:
    """PHYLIP square matrix: count line, 10-column name field, 6 decimals."""
    lines = [str(len(names))]
    for name, row in zip(names, grid):
        cells = " ".join(f"{v:.6f}" for v in row)
        label = f"{name} " if relaxed else f"{name:<{PHYLIP_NAME_WIDTH}}"
        lines.append(label + cells)
    return "\n".join(lines) + "\n"


def format_tsv_matrix(names: list[str], grid: list[list[float]]) -> str:
    lines = ["name\t" + "\t".join(names)]
    for name, row in zip(names, grid):
        lines.append(name + "\t" + "\t".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def cmd_matrix(config: RunConfig) -> int:
    seqs, _ = load_sequences(config)
    if len(seqs) < 2:
        raise ValueError(f"matrix needs at least 2 sequences, found {len(seqs)}")
    names = [s.name for s in seqs]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate sequence name: {name}")
        seen.add(name)
    if config.output == "phylip" and not config.relaxed_names:
        for name in names:
            if len(name) > PHYLIP_NAME_WIDTH:
                raise ValueError(
                    f"name longer than {PHYLIP_NAME_WIDTH} characters for "
                    f"phylip output: {name} (pass --relaxed-names to allow)"
                )
    grid = dist_matrix(seqs, config.log_base, config.threads)
    if config.output == "phylip":
        text = format_phylip(names, grid, config.relaxed_names)
    else:
        text = format_tsv_matrix(names, grid)
    if config.out:
        _write_out(config, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    from rleacs.verify import run_verification

    report = run_verification(seed=config.seed, trials=config.trials, n_max=config.n_max)
    if report.ok:
        print(f"{report.passed}/{report.total} ok")
        print(report.coverage, file=sys.stderr)
        return EXIT_OK
    print(f"{report.passed}/{report.total} ok before first failure", file=sys.stderr)
    print(report.failure, file=sys.stderr)
    if report.failure_record:
        print(report.failure_record, file=sys.stderr)
    return EXIT_VERIFY


def cmd_bench(config: RunConfig) -> int:
    from rleacs import bench

    rows = bench.doubling_sweep(config.n_max, seed=config.seed, reps=config.trials)
    print("doubling sweep (time ratio per doubling of run count)")
    print(bench.format_table(rows))
    print()
    total_runs = min(bench.RUN_COUNT_FIXED, config.n_max)
    scale_rows = bench.runlength_sweep(total_runs, seed=config.seed, reps=config.trials)
    print("run-length scaling at fixed run count")
    print(bench.format_table(scale_rows, with_ratios=False))
    print()
    print("adversarial inputs for the suffix order")
    print(bench.format_table(bench.adversarial_rows(reps=config.trials), with_ratios=False))
    print()
    print("fasta ingest, run-length ingest and fasta family ingest from memory (read_*_records,")
    print("the last two then build_text_sequences)")
    print(bench.format_ingest(bench.ingest_rows(config.seed, reps=config.trials)))
    print()
    print("dist_matrix stages on mutant families, one thread (no gate)")
    families = [bench.family_row(k, config.seed, reps=config.trials) for k in bench.FAMILY_SIZES]
    print(bench.format_family(families))
    print()
    print("run-length pair past the int64 bound (limbs: its tokens answered on limbs)")
    limb_row = bench.limb_pair_row(config.seed, reps=config.trials)
    print(bench.format_table([limb_row], with_ratios=False))
    print()
    row, got, want = bench.giant_unary()
    print("giant unary pair (decoded 10^9 vs 10^6)")
    print(bench.format_table([row], with_ratios=False))
    if got == want:
        print(f"closed form check: ok ({got})")
        return EXIT_OK
    print(f"closed form check: MISMATCH (got {got}, expected {want})", file=sys.stderr)
    return EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this front end uses 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int):
    """argparse type for counts and sizes; smaller values are usage errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("paths", nargs="+", metavar="FILE", help="input file(s)")
    sub.add_argument(
        "--format",
        choices=("fasta", "rle", "text"),
        default="fasta",
        help="input format (default fasta; text = one raw sequence per file)",
    )
    sub.add_argument("--out", metavar="PATH", help="also write the result to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rleacs", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p_acs = commands.add_parser("acs", help="average common substring of two sequences")
    _add_input_flags(p_acs)
    p_acs.set_defaults(func=cmd_acs)

    p_dist = commands.add_parser("dist", help="symmetric distance of two sequences")
    _add_input_flags(p_dist)
    p_dist.add_argument("--log-base", choices=("e", "2", "10"), default="e")
    p_dist.set_defaults(func=cmd_dist)

    p_matrix = commands.add_parser("matrix", help="pairwise distance matrix")
    _add_input_flags(p_matrix)
    p_matrix.add_argument("--log-base", choices=("e", "2", "10"), default="e")
    p_matrix.add_argument("--output", choices=("phylip", "tsv"), default="phylip")
    p_matrix.add_argument("--threads", type=_int_at_least(1), default=1, metavar="K")
    p_matrix.add_argument(
        "--relaxed-names",
        action="store_true",
        help="allow names over 10 characters in phylip output (nonstandard, unpadded)",
    )
    p_matrix.set_defaults(func=cmd_matrix)

    p_verify = commands.add_parser("verify", help="randomized engine-vs-oracle check")
    p_verify.add_argument("--seed", type=int, default=42, metavar="S")
    p_verify.add_argument("--trials", type=_int_at_least(0), default=1000, metavar="T")
    p_verify.add_argument("--n-max", type=_int_at_least(1), default=500, metavar="B")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = commands.add_parser("bench", help="scaling benchmarks")
    p_bench.add_argument("--seed", type=int, default=42, metavar="S")
    p_bench.add_argument(
        "--trials",
        type=_int_at_least(1),
        default=2,
        metavar="T",
        help="repetitions per measurement",
    )
    p_bench.add_argument(
        "--n-max",
        type=_int_at_least(BENCH_RUNS_MIN),
        default=BENCH_RUNS_MAX,
        metavar="B",
        help=f"largest run count in the doubling sweep (at least {BENCH_RUNS_MIN})",
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The parsed flags as a RunConfig; flags a command lacks keep its defaults."""
    parsed = vars(args)
    values = {f.name: parsed[f.name] for f in fields(RunConfig) if f.name in parsed}
    values["paths"] = tuple(values.get("paths", ()))
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    config = _config_from_args(args)
    try:
        return args.func(config)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
