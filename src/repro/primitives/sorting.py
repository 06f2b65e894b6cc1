"""Parallel sample sort (Helman–JáJá).

TV-SMP builds the circular adjacency lists for the Euler tour by sorting all
tree arcs "with min(u, v) as the primary key and max(u, v) as the secondary
key" so that anti-parallel mates land next to each other (paper §3.1), using
"the efficient parallel sample sorting routine designed by Helman and JáJá".

The implementation executes the real phases:

1. block-local sort of n/p keys per processor;
2. regular sampling of each sorted block; sort of the p*oversample samples
   and pivot selection (one processor);
3. partition of every block by the p-1 pivots (binary searches);
4. bucket exchange (irregular traffic) and per-bucket p-way merge, realized
   with a final sort of each bucket.

Total work O(n log n); the bucket exchange is the random-access phase.

The simulated machine is charged for those comparison-sort phases; the
host executes each local sort and bucket merge of integer keys with
:func:`radix_argsort`, the one stable integer sort of this package (also
behind the CSR conversion and the level groupings of the tree sweeps).
"""

from __future__ import annotations

import math

import numpy as np

from ..smp import Machine, Ops, resolve_machine

__all__ = ["radix_argsort", "sample_sort", "sample_argsort"]

#: bits per LSD pass: numpy's stable sort of 16-bit keys is a radix sort
_DIGIT_BITS = 16


def radix_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys, in linear time.

    An LSD radix sort over 16-bit digits (of the offsets from the minimum
    when a key is negative): one pass when the keys are below 2**16,
    ``ceil(bits / 16)`` otherwise.  Each pass is numpy's stable sort of a
    ``uint16`` digit array, which numpy runs as a counting (radix) sort,
    so ties keep their input order across passes.
    """
    keys = np.asarray(keys)
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError(f"radix_argsort needs integer keys, got {keys.dtype}")
    if keys.size == 0:
        return np.empty(0, dtype=np.intp)
    lo, hi = int(keys.min()), int(keys.max())
    if lo < 0:
        # modular uint64 arithmetic gives the exact offsets from the minimum
        keys = keys.astype(np.uint64) - np.uint64(lo % 2**64)
        hi -= lo
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = _DIGIT_BITS
    while hi >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += _DIGIT_BITS
    return order


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    if np.issubdtype(keys.dtype, np.integer):
        return radix_argsort(keys)
    return np.argsort(keys, kind="stable")


def _block_bounds(n: int, p: int) -> np.ndarray:
    return np.linspace(0, n, min(p, max(n, 1)) + 1).astype(np.int64)


def sample_argsort(
    keys: np.ndarray,
    machine: Machine | None = None,
    *,
    oversample: int = 8,
) -> np.ndarray:
    """Permutation that stably sorts ``keys`` (1-D integer/float array).

    Equivalent to ``np.argsort(keys, kind='stable')`` but executed (and
    charged) as a Helman–JáJá sample sort across ``machine.p`` processors.
    """
    machine = resolve_machine(machine)
    keys = np.asarray(keys)
    n = keys.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    p = max(1, min(machine.p, n))
    machine.spawn()
    bounds = _block_bounds(n, p)
    nblocks = bounds.size - 1
    logn_p = max(1.0, math.log2(max(n / nblocks, 2.0)))

    # phase 1: local stable sorts
    local_orders: list[np.ndarray] = []
    for i in range(nblocks):
        a, b = int(bounds[i]), int(bounds[i + 1])
        order = _stable_argsort(keys[a:b]) + a
        local_orders.append(order)
    machine.parallel(n, Ops(contig=2, alu=logn_p))

    if nblocks == 1:
        return local_orders[0]

    # phase 2: regular sampling and pivot selection
    samples = []
    for order in local_orders:
        take = np.linspace(0, order.size - 1, min(oversample, order.size)).astype(np.int64)
        samples.append(keys[order[take]])
    samples = np.sort(np.concatenate(samples), kind="stable")
    pivot_idx = np.linspace(0, samples.size - 1, nblocks + 1).astype(np.int64)[1:-1]
    pivots = samples[pivot_idx]
    machine.sequential(samples.size, Ops(contig=1, alu=math.log2(max(samples.size, 2))))
    machine.barrier()

    # phase 3: partition every sorted block by the pivots
    splits = []
    for order in local_orders:
        block_sorted = keys[order]
        cuts = np.searchsorted(block_sorted, pivots, side="right")
        splits.append(np.concatenate(([0], cuts, [order.size])))
    machine.parallel(
        nblocks * max(1, pivots.size), Ops(random=1, alu=math.log2(max(n / nblocks, 2)))
    )

    # phase 4: bucket exchange + per-bucket merge (final local sorts)
    out = np.empty(n, dtype=np.int64)
    pos = 0
    exchange_items = 0
    merge_items = 0
    for b in range(nblocks):
        segs = [
            local_orders[i][splits[i][b] : splits[i][b + 1]]
            for i in range(nblocks)
            if splits[i][b + 1] > splits[i][b]
        ]
        if not segs:
            continue
        bucket = np.concatenate(segs)
        exchange_items += bucket.size
        # stable p-way merge of already-sorted runs, realized by a stable
        # sort on the key: indices ascend inside each run and the runs
        # were gathered in block order, so equal keys keep ascending
        # indices and the result is the global stable order
        merged = bucket[_stable_argsort(keys[bucket])]
        merge_items += bucket.size
        out[pos : pos + bucket.size] = merged
        pos += bucket.size
    machine.parallel(exchange_items, Ops(random=2, contig=1))
    machine.parallel(merge_items, Ops(contig=2, alu=math.log2(max(nblocks, 2))))
    return out


def sample_sort(
    keys: np.ndarray,
    machine: Machine | None = None,
    *,
    oversample: int = 8,
) -> np.ndarray:
    """Sorted copy of ``keys`` via :func:`sample_argsort`."""
    machine = resolve_machine(machine)
    keys = np.asarray(keys)
    order = sample_argsort(keys, machine=machine, oversample=oversample)
    machine.parallel(keys.size, Ops(contig=1, random=1))
    return keys[order]
