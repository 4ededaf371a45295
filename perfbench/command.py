"""Run one rleacs CLI command repeatedly in this fresh process and report it as JSON.

    python3 perfbench/command.py [--seconds S] [--trace] [--probe-threads K] -- dist --format rle pair.rle

Each command is an in-process call to `rleacs.cli.main(argv)` with stdout
and stderr captured. The first command is a warm-up: it is checked like the
others but not timed, and the peak RSS of the process is read right after
it, before the host speed probe of calibrate.py first allocates its inputs.
Then the probe runs on K threads, and the command and the probe alternate
until S seconds have passed; with --trace every second timed command runs
with the layer functions wrapped in spans. One JSON object goes to the real
stdout: the peak RSS, and per command the exit code, captured output, wall
and process CPU seconds, whether it was the warm-up, for a timed command the
mean of the two probes around it, and for a traced command the
per-function span summary."""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from calibrate import probe  # noqa: E402


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak RSS of this process since it started.

    On Linux, ru_maxrss also counts the parent's RSS at the fork before the
    exec; run.py, once it has run the host speed probe, holds more than a
    small command's own peak. So VmHWM of this process's own memory map is
    read instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_once(argv: list[str], trace: bool) -> dict:
    from rleacs.cli import main

    out, err = io.StringIO(), io.StringIO()
    report: dict = {"traced": trace}
    gc.collect()
    with contextlib.ExitStack() as stack:
        if trace:
            from layers import TARGETS
            from spans import Recorder, instrument

            recorder = Recorder()
            report["absent"] = stack.enter_context(instrument(recorder, TARGETS))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        t0, c0 = time.perf_counter(), _cpu()
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed command, reported to the caller
            rc = None
            err.write(traceback.format_exc())
        report["wall_s"] = time.perf_counter() - t0
        report["cpu_s"] = _cpu() - c0
    report.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())
    if trace:
        from layers import summarize

        report["summary"] = summarize(recorder.spans)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe-threads", type=int, default=1)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    warm_up = run_once(argv, False)
    warm_up["warm_up"] = True
    peak_mb = peak_rss_mb()
    commands = []
    probe(args.probe_threads)
    probes = [probe(args.probe_threads)]
    start = time.perf_counter()
    while True:
        commands.append(run_once(argv, args.trace and len(commands) % 2 == 1))
        probes.append(probe(args.probe_threads))
        commands[-1].update(warm_up=False, probe_s=(probes[-2] + probes[-1]) / 2)
        enough = len(commands) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break
    commands.insert(0, warm_up)
    print(json.dumps({"peak_rss_mb": peak_mb, "commands": commands}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
