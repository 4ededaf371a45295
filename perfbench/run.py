"""rleacs benchmark: seeded workloads run through the CLI, timed and checked.

    python3 perfbench/run.py --workload pair_rle_large --seed 1 --seconds 30 --trace 0

--seed picks one of the input variants of perfbench/workloads.py. Set-up
writes the workload's input files; it runs several times, each in a fresh
interpreter that imports rleacs, and `setup_s` is the median. The workload's
command then runs repeatedly for --seconds seconds in one fresh process
(perfbench/command.py), each time as an in-process call to
`rleacs.cli.main(argv)`. Every output is checked: exact rationals against
the values recorded from the program when the benchmark was defined
(expected.json), float distances against a 60-digit decimal reference. A
closed-form unary pair and an oracle check of each generator's miniature
also count as checked operations.

With --trace 0 the result holds the end-to-end metrics: `scaled_wall_s`,
the median over the run's commands of each command's wall time scaled to a
reference host speed; `setup_s`, the median set-up time scaled the same way;
and `peak_rss_mb`, the peak RSS of the command process after its first
command, an untimed warm-up. A shared host runs the same code up to 2x
slower for stretches of seconds to minutes, in user CPU time, so neither the
wall nor the CPU time of a command repeats from run to run. The host speed
probe of calibrate.py, which does not use rleacs, runs next to every command
(on as many threads as the command) and every set-up, and each time is
multiplied by the probe's reference time over its time there. Over ten
30-second runs per workload with different seeds on a 2-vCPU VM, this cut
the spread (interquartile range over median) of the median command time
from 0.16/0.28/0.15 to 0.03/0.12/0.08 (pair/matrix/ingest). Raw wall times,
their quartiles and the probe times are in the context line.

With --trace 1 untraced and traced commands alternate, and the result holds
the per-layer metrics of perfbench/layers.py. The last line of stdout is the
result object; the line before it gives the context (host, workload argv,
input sizes, sample counts, absent functions, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 7
CHILD_TIMEOUT_S = 150


class Tally:
    """Checked operations: attempted, failed, and the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, label: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(f"{label}: {'; '.join(failures)[:500]}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], seconds: float, trace: bool, threads: int = 1) -> dict | None:
    """Run a command repeatedly in one fresh process (perfbench/command.py); None if it broke."""
    cmd = [sys.executable, str(BENCH / "command.py"), "--seconds", str(seconds)]
    cmd += ["--probe-threads", str(threads)]
    cmd += [*(["--trace"] if trace else []), "--", *argv]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=seconds + CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: command timed out: {argv}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: command process failed: {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def command_failures(report: dict, check) -> list[str]:
    if report["rc"] != 0:
        return [f"exit {report['rc']}: {report['stderr'][-300:]}"]
    return check(report["stdout"])


def set_up(workload, seed: int, reps: int) -> tuple[list[float], list[float]]:
    """Write the inputs `reps` times, each in a fresh interpreter.

    Returns the times and, for each, the mean of the host speed probes
    before and after it.
    """
    from calibrate import probe

    times = []
    probes = [probe()]
    out = WORK / workload.name / "inputs"
    for _ in range(reps):
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        # with a timeout, a plain wait polls the child every 50 ms and rounds
        # the time up to that step; waiting for its captured output does not
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", workload.name,
             "--seed", str(seed), "--out", str(out)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: input generation failed: {proc.stderr[-2000:]}")
        probes.append(probe())
    return times, [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def load_expected(name: str, seed: int, variants: int):
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        table = json.load(fh)
    if table["variants"] != variants:
        raise SystemExit("expected.json was recorded for another variant count")
    entry = table["workloads"][name][str(seed % variants)]
    sizes = {k: tuple(v) for k, v in entry["sizes"].items()}
    return sizes, {k: Fraction(v) for k, v in entry["acs"].items()}


def oracle_checks(workload, seed: int, tally: Tally) -> None:
    """The workload generator's miniature, every ordered pair, against the oracle."""
    from rleacs import check_pair, parse_fasta, parse_rle_text

    parse = parse_rle_text if "rle" in workload.command else parse_fasta
    (text,) = workload.generate(seed, mini=True).files.values()
    seqs, _ = parse(text)
    for a in seqs:
        for b in seqs:
            if a is not b:
                tally.add(f"oracle {a.name}/{b.name}", check_pair(a, b))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rleacs" / "__init__.py").is_file():
        print(f"error: no rleacs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import checks
    import layers
    from calibrate import scaled
    from workloads import VARIANTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    load_avg = os.getloadavg()
    sizes, acs = load_expected(workload.name, args.seed, VARIANTS)
    tally = Tally()

    setup_times, setup_probes = set_up(workload, args.seed, SETUP_REPS if not args.trace else 1)
    paths = sorted((WORK / workload.name / "inputs").iterdir())
    argv_run = workload.argv([p.relative_to(ROOT) for p in paths])
    if workload.command[0] == "matrix":
        def check(text):
            return checks.check_matrix(text, sizes, acs)
    else:
        def check(text):
            return checks.check_dist(text, sizes, acs)

    anchor = WORK / workload.name / "anchor.rle"
    anchor.write_text(checks.ANCHOR_RLE, encoding="utf-8")
    anchor_sizes, anchor_acs = checks.anchor_expected()
    anchor_run = run_child(["dist", "--format", "rle", str(anchor.relative_to(ROOT))], 0, False)
    tally.add(
        "anchor",
        ["no report"] if anchor_run is None else command_failures(
            anchor_run["commands"][0],
            lambda text: checks.check_dist(text, anchor_sizes, anchor_acs),
        ),
    )
    oracle_checks(workload, args.seed, tally)

    timed = run_child(argv_run, args.seconds, bool(args.trace), workload.threads)
    if timed is None:
        return 1
    for report in timed["commands"]:
        failures = command_failures(report, check)
        report["ok"] = not failures
        tally.add("traced command" if report["traced"] else "command", failures)
    untraced = [r for r in timed["commands"] if not r["traced"] and not r["warm_up"]]
    traced = [r for r in timed["commands"] if r["traced"]]

    med = statistics.median
    # a command that failed early must not pass for a fast one
    timed_ok = [r for r in untraced if r["ok"]] or untraced
    walls = [r["wall_s"] for r in timed_ok]
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    if args.trace:
        values = layers.aggregate(traced, untraced, workload.command[0])
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in layers.PER_LAYER.items()
        }
    else:
        metrics = {
            "scaled_wall_s": {
                "value": med(scaled(r["wall_s"], r["probe_s"]) for r in timed_ok),
                "unit": "s",
            },
            "setup_s": {
                "value": med(map(scaled, setup_times, setup_probes)),
                "unit": "s",
            },
            "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
        }
    context = {
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "load_avg_start": load_avg,
        },
        "workload": workload.name,
        "why": workload.why,
        "argv": ["rleacs", *argv_run],
        "variant": args.seed % VARIANTS,
        "input_sizes": {name: {"runs": r, "decoded": n} for name, (r, n) in sizes.items()},
        "setup_s": setup_times,
        "setup_probe_s": setup_probes,
        "commands": {"untraced": len(untraced), "traced": len(traced)},
        "wall_quartiles_s": quartiles,
        "wall_samples_s": [r["wall_s"] for r in untraced],
        "probe_samples_s": [r["probe_s"] for r in untraced],
        "absent": traced[0].get("absent", []) if traced else [],
        "failures": tally.notes,
    }
    (WORK / workload.name / "context.json").write_text(json.dumps(context, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
