"""Record the exact outputs the benchmark checks against, into expected.json.

    python3 perfbench/record.py [--jobs 2]

For every workload and input variant this generates the full-size inputs,
loads them through the program's own CLI loader and stores, for every
ordered pair of records, the exact average common substring as a rational,
plus each record's run count and decoded length. Run it only against a
program whose outputs are trusted (it records whatever the program says),
and only when the generators or the variant count change.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import VARIANTS, WORKLOADS  # noqa: E402


def record_one(job: tuple[str, int]) -> tuple[str, int, dict]:
    from rleacs.cli import RunConfig, load_sequences
    from rleacs.engine import acs

    name, variant = job
    workload = WORKLOADS[name]
    inputs = workload.generate(variant)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        paths = inputs.write(Path(tmp))
        fmt = "rle" if "rle" in workload.command else "fasta"
        seqs, _ = load_sequences(RunConfig(paths=tuple(map(str, paths)), format=fmt))
    sizes = {s.name: [s.run_count, s.content_length] for s in seqs}
    if sizes != {k: list(v) for k, v in inputs.sizes.items()}:
        raise SystemExit(f"{name}/{variant}: generator sizes disagree with the loader")
    values = {
        f"{a.name}|{b.name}": str(acs(a, b).value) for a in seqs for b in seqs if a is not b
    }
    return name, variant, {"sizes": sizes, "acs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    jobs = [(name, v) for name in WORKLOADS for v in range(VARIANTS)]
    table: dict = {"variants": VARIANTS, "workloads": {name: {} for name in WORKLOADS}}
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        for name, variant, entry in pool.map(record_one, jobs):
            table["workloads"][name][str(variant)] = entry
    (BENCH / "expected.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
