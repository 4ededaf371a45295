"""Host speed probe: a fixed mix of interpreter, numpy, big-integer and memory work.

A shared host runs the same code up to 2x slower for stretches of seconds to
minutes, and the slowdown is in user CPU time, not in waiting, so CPU time
does not remove it. The benchmark runs `probe()` between commands and scales
each command's time by how long the probe took next to it (see `scaled`).
The probe does not use rleacs, so a change to the program does not change it,
and it runs with the garbage collector off, so the program's heap does not
either.

The probe runs on as many threads as the command it scales: on a 2-vCPU VM,
`matrix --threads 2` did not follow a one-thread probe (correlation 0.3
over 30 commands, against 0.8 for `matrix --threads 1`). The memory part
(a 4 MB byte translation and a random gather from 32 MB) made the scaled
times of six 25-second runs per workload spread 0.04/0.03/0.02
(ingest/matrix/pair, interquartile range over median) where the probe
without it gave 0.07/0.10/0.03.
"""

from __future__ import annotations

import functools
import gc
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# the probe's time on a quiet host of the kind the benchmark was defined on
# (2-vCPU Xeon VM); a scaled time reads as seconds on that host
REFERENCE_S = 0.2
ROUNDS = 4

_TABLE = bytes.maketrans(b"abcd", b"tgca")


@functools.cache
def _data():
    """The probe's inputs, made on first use so they stay out of earlier RSS readings."""
    rng = np.random.default_rng(20260101)
    keys = rng.integers(0, 1 << 40, 1 << 16)
    return (
        keys,
        [int(v) for v in keys[:20000]],
        bytes(rng.integers(97, 101, 4 << 20, dtype=np.uint8)),
        rng.integers(0, 1 << 30, 4 << 20),
        rng.integers(0, 4 << 20, 1 << 17),
    )


def _work() -> int:
    keys, ints, buf, table, index = _data()
    counts: dict[int, int] = {}
    for v in ints:
        k = v & 1023
        counts[k] = counts.get(k, 0) + 1
    pairs = sorted((v % 10007, v) for v in ints)
    order = np.argsort(keys, kind="stable")
    gathered = np.cumsum(keys[order] & 0xFFFF)
    big = 1
    for v in ints[:1500]:
        big = big * (v | 1) % (1 << 4096)
    swapped = buf.translate(_TABLE).count(b"t")
    spread = int(table[index].sum())
    return len(counts) + pairs[0][0] + int(gathered[-1]) + (big & 1) + swapped + spread


def probe(threads: int = 1) -> float:
    """Seconds for `ROUNDS` rounds of the fixed work, spread over `threads` threads."""
    _data()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        if threads == 1:
            for _ in range(ROUNDS):
                _work()
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(lambda _: _work(), range(ROUNDS)))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured next to a probe of `probe_s`, at the reference host speed."""
    return seconds * REFERENCE_S / probe_s
