"""Parallel prefix sums (scans).

Prefix computation is the first primitive the paper lists; the SMP algorithm
is Helman–JáJá's three-phase block scan [9]:

1. split the array into ``p`` contiguous blocks, each processor reduces its
   block (one streaming pass);
2. one processor scans the ``p`` block sums;
3. each processor rescans its block seeded with its block offset.

Work is ``2n + p`` with two barriers — all *contiguous* traffic, which is
exactly why TV-opt replaces list ranking with prefix sums on the
DFS-ordered Euler tour (paper §3.2).

The implementation really executes the three phases (per-block numpy
reductions/cumulative ops) and charges them to the machine model.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..smp import Machine, Ops, resolve_machine

__all__ = ["prefix_sum", "exclusive_prefix_sum", "prefix_scan", "segmented_prefix_scan"]

_SCAN_OPS: dict[str, tuple[Callable, Callable, float]] = {
    # name -> (numpy cumulative fn, numpy reduce fn, identity)
    "sum": (np.cumsum, np.add.reduce, 0),
    "max": (np.maximum.accumulate, np.maximum.reduce, None),
    "min": (np.minimum.accumulate, np.minimum.reduce, None),
}


def _blocks(n: int, p: int) -> list[tuple[int, int]]:
    """Contiguous block decomposition of ``range(n)`` over ``p`` processors."""
    if n == 0:
        return []
    p = min(p, n)
    bounds = np.linspace(0, n, p + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(p)]


def prefix_scan(
    x: np.ndarray,
    op: str = "sum",
    machine: Machine | None = None,
) -> np.ndarray:
    """Inclusive parallel scan of ``x`` under ``op`` in {'sum','max','min'}.

    Returns an array ``y`` with ``y[i] = op(x[0], ..., x[i])``.
    """
    machine = resolve_machine(machine)
    if op not in _SCAN_OPS:
        raise ValueError(f"unsupported scan op {op!r}; choose from {sorted(_SCAN_OPS)}")
    cum_fn, red_fn, _ = _SCAN_OPS[op]
    x = np.asarray(x)
    n = x.size
    out = np.empty_like(x)
    if n == 0:
        return out
    machine.spawn()
    blocks = _blocks(n, machine.p)
    # phase 1: per-block reduction (one streaming read per element)
    block_sums = np.array([red_fn(x[a:b]) for a, b in blocks])
    machine.parallel(n, Ops(contig=1, alu=1))
    # phase 2: scan of p block sums on one processor
    offsets = cum_fn(block_sums)
    machine.sequential(len(blocks), Ops(contig=1, alu=1))
    machine.barrier()
    # phase 3: per-block rescan with seed (one read + one write per element)
    for i, (a, b) in enumerate(blocks):
        seg = cum_fn(x[a:b])
        if i > 0:
            if op == "sum":
                seg = seg + offsets[i - 1]
            elif op == "max":
                seg = np.maximum(seg, offsets[i - 1])
            else:
                seg = np.minimum(seg, offsets[i - 1])
        out[a:b] = seg
    machine.parallel(n, Ops(contig=2, alu=1))
    return out


def prefix_sum(x: np.ndarray, machine: Machine | None = None) -> np.ndarray:
    """Inclusive parallel prefix sum (``y[i] = x[0] + ... + x[i]``)."""
    return prefix_scan(x, op="sum", machine=machine)


def exclusive_prefix_sum(x: np.ndarray, machine: Machine | None = None) -> np.ndarray:
    """Exclusive prefix sum (``y[i] = x[0] + ... + x[i-1]``, ``y[0] = 0``)."""
    x = np.asarray(x)
    inc = prefix_sum(x, machine=machine)
    out = np.empty_like(inc)
    if out.size:
        out[0] = 0
        out[1:] = inc[:-1]
    return out


def segmented_prefix_scan(
    x: np.ndarray,
    segment_starts: np.ndarray,
    op: str = "sum",
    machine: Machine | None = None,
) -> np.ndarray:
    """Inclusive scan restarted at every flagged segment start.

    ``segment_starts`` is a boolean array; position i with
    ``segment_starts[i] == True`` begins a new segment (position 0 always
    starts a segment).  Used by tree computations over Euler-tour segments.

    Implemented as an ordinary scan on a transformed sequence: for 'sum' we
    subtract the running total at each segment head (computed via a scan of
    head offsets); for 'min'/'max' we run per-segment numpy accumulations
    block-parallel.  Charged as two scans (the standard segmented-scan work
    bound).
    """
    machine = resolve_machine(machine)
    x = np.asarray(x)
    n = x.size
    flags = np.asarray(segment_starts, dtype=bool)
    if flags.shape != (n,):
        raise ValueError("segment_starts must align with x")
    if n == 0:
        return np.empty_like(x)
    if op == "sum":
        total = prefix_scan(x, "sum", machine)
        # value of total just before each segment head, broadcast forward
        head_idx = np.flatnonzero(flags | (np.arange(n) == 0))
        base = np.where(head_idx > 0, total[head_idx - 1], 0)
        seg_id = np.cumsum(flags | (np.arange(n) == 0)) - 1
        machine.parallel(n, Ops(contig=2, alu=1))
        return total - base[seg_id]
    if op in ("min", "max"):
        cum_fn = _SCAN_OPS[op][0]
        head = flags.copy()
        head[0] = True
        starts = np.flatnonzero(head)
        ends = np.append(starts[1:], n)
        out = np.empty_like(x)
        for a, b in zip(starts.tolist(), ends.tolist()):
            out[a:b] = cum_fn(x[a:b])
        # charged as the standard two-pass segmented scan
        machine.spawn()
        machine.parallel(n, Ops(contig=2, alu=1), rounds=2)
        return out
    raise ValueError(f"unsupported scan op {op!r}")
