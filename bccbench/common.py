"""Shared helpers: locating the program, statistics, memory, run outcomes.

Nothing here imports the program; ``bootstrap`` puts ``<root>/src`` on
``sys.path`` (and refuses to run when it is absent) before any workload
module imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


def bootstrap() -> dict:
    """Make ``import repro`` resolve to this checkout; return the spec."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SetupError(f"no program source under {src}")
    if not os.path.isfile(SPEC_PATH):
        raise SetupError(f"no benchmark spec at {SPEC_PATH}")
    if src not in sys.path:
        sys.path.insert(0, src)
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------- #
# statistics


def median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=float))) if len(xs) else 0.0


def pct(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q)) if len(xs) else 0.0


def digest(value) -> str:
    """Short content hash of nested lists / dicts / numpy arrays / scalars.

    Arrays are hashed in full (their ``repr`` elides long arrays).
    """
    h = hashlib.sha256()

    def feed(a):
        if isinstance(a, dict):
            for k in sorted(a):
                h.update(str(k).encode())
                feed(a[k])
        elif isinstance(a, np.ndarray):
            h.update(str(a.dtype).encode())
            h.update(np.ascontiguousarray(a).tobytes())
        elif isinstance(a, (list, tuple)):
            h.update(b"[")
            for x in a:
                feed(x)
            h.update(b"]")
        else:
            h.update(f"{type(a).__name__}:{a!r}".encode())
        h.update(b"|")

    feed(value)
    return h.hexdigest()[:16]


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.s`` (seconds)."""

    __slots__ = ("t0", "s")

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.s = time.perf_counter() - self.t0


# ---------------------------------------------------------------------- #
# memory (read from /proc; Linux only)


def _status_kb(pid, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def pin_one_cpu() -> int:
    """Run this process, and the processes it forks later, on one CPU.

    On a host whose vCPUs are shared with other machines, a run that
    keeps two vCPUs busy suffers several times more hypervisor steal and
    its figures scatter (see README, "Host noise").
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_ticks() -> int:
    """Host-wide CPU time the hypervisor gave to others (USER_HZ ticks)."""
    with open("/proc/stat", encoding="ascii") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def child_pids() -> list:
    """Live child processes of this process (all threads' children)."""
    pids = []
    task_dir = "/proc/self/task"
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "children"), encoding="ascii") as f:
                pids.extend(int(p) for p in f.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(pids))


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set (VmHWM) of this process, plus its live children."""
    kb = _status_kb("self", "VmHWM")
    if include_children:
        kb += sum(_status_kb(pid, "VmHWM") for pid in child_pids())
    return kb / 1024.0


# ---------------------------------------------------------------------- #
# what a workload hands back to the runner


@dataclass
class Outcome:
    """One workload run: end-to-end and per-layer figures plus checks.

    ``work`` holds one dict of work-done counts per round (``work_traced``
    the counts only traced rounds make); every round of a run does the
    same operations, so the dicts of each list must be equal.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    work: list = field(default_factory=list)
    work_traced: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def work_repeat(self) -> bool:
        return all(
            all(w == counts[0] for w in counts)
            for counts in (self.work, self.work_traced)
        )

    @property
    def work_digest(self) -> str:
        first = [counts[0] for counts in (self.work, self.work_traced) if counts]
        return digest(first) if first else ""


def rounds_until(deadline: float, min_rounds: int = 1):
    """Yield round indices until ``deadline`` passes (at least ``min_rounds``)."""
    i = 0
    while i < min_rounds or time.perf_counter() < deadline:
        yield i
        i += 1
