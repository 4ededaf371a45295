"""Span recording around rleacs layer functions, patched in from outside.

The program is not edited: `instrument` replaces each target function
wherever an rleacs module holds a reference to it (so `rleacs.cli.dist`,
`rleacs.engine.build_suffix_order` and `rleacs.symbol_tries.annotate` are
all caught where their callers look them up), and puts every original back
on exit. A target that no longer exists is reported as absent.

Each thread keeps its own span stack. A span opened on an empty stack in a
worker thread takes the innermost open span of the command's thread as its
parent, so the spans of one command form a single tree across threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Recorder:
    """Collects finished spans; safe to use from several threads.

    The thread that creates the recorder is the command's thread. A span
    opened on an empty stack in any other thread takes the innermost open
    span of the command's thread as its parent.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def open(self, name: str) -> Span:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if not stack and thread != self._main:
                stack = self._stacks.get(self._main) or stack
            parent = stack[-1].id if stack else None
            span = Span(next(self._ids), parent, thread, name, 0.0, 0.0)
            self._stacks[thread].append(span)
        span.cpu_start = self.cpu_clock()
        span.start = self.clock()
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = self.clock()
        span.cpu_end = self.cpu_clock()
        span.error = error
        with self._lock:
            stack = self._stacks[span.thread]
            if not stack or stack[-1] is not span:
                raise RuntimeError(f"span {span.name} closed out of order")
            stack.pop()
            self.spans.append(span)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Span id -> (self wall seconds, self thread-CPU seconds).

    Self wall time is the span's duration minus the part of it that child
    spans cover, on any thread; overlapping children in two threads are
    counted once. Self CPU time subtracts only children on the span's own
    thread, since the others spent another thread's CPU time.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.id, [])
        covered = union_length(
            [(max(k.start, s.start), min(k.end, s.end)) for k in kids if k.end > s.start and k.start < s.end]
        )
        own_cpu = sum(k.cpu for k in kids if k.thread == s.thread)
        out[s.id] = (s.wall - covered, s.cpu - own_cpu)
    return out


@dataclass(frozen=True)
class Target:
    """One layer function: `qualname` is looked up in `rleacs.<module>`."""

    module: str
    qualname: str
    # meter(args, kwargs, result) -> counts stored on the span
    meter: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _wrap(recorder: Recorder, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(target.name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(span, error=True)
            raise
        recorder.close(span)
        if target.meter is not None:
            try:
                span.counts = target.meter(args, kwargs, result)
            except (AttributeError, IndexError, TypeError, ValueError):
                pass  # a changed signature or result type loses the count, not the call
        return result

    return wrapper


@contextmanager
def instrument(recorder: Recorder, targets: list[Target]):
    """Patch every target for the duration of the block; yields absent names."""
    patched: list[tuple[object, str, object]] = []
    absent: list[str] = []
    try:
        for target in targets:
            try:
                owner = importlib.import_module(f"rleacs.{target.module}")
            except ModuleNotFoundError:
                owner = None
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                absent.append(target.name)
                continue
            wrapper = _wrap(recorder, target, original)
            if path:
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "rleacs" and not mod_name.startswith("rleacs."):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, name, original))
                        setattr(module, name, wrapper)
        yield absent
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
