"""Backend-agnostic parallel kernels (the lifted ``threaded_*`` bodies).

Each kernel here runs the *same decomposition* the cost model prices —
block-partitioned parallel phases separated by software barriers — on any
:class:`~repro.runtime.team.Team`, and produces **bit-identical** output
to its vectorized primitive (including tie-breaks: Shiloach–Vishkin's
graft winners and BFS's first-writer-wins parents), so a backend switch
can never change an edge label downstream.

Bit-identity is by construction, not luck.  The racy CRCW scatters of the
old ``smp.threads`` bodies are replaced by a deterministic two-phase
shape shared by all three kernels:

1. a *pure-gather* parallel phase — workers read shared state and write
   only to rank-private slices of shared buffers (their own block, or a
   compacted run at their block's offset), so the phase is
   order-independent;
2. a barrier, then a cheap *combine* on the calling rank that replays the
   exact arbitration rule of the vectorized primitive (numpy's
   last-write-wins scatter for SV, ``np.unique`` first-win for BFS) over
   the gathered candidates in original arc order.

Because contiguous ascending blocks concatenate back into original order,
the combine sees exactly the operand sequence the vectorized code sees.

Worker bodies are module-level functions (picklable by reference for the
process backend) and allocate all cross-phase state through the team so
the process backend places it in shared memory.  Each kernel copies its
results out of team storage and releases the segments before returning.

Machine charging: kernels charge the *same* operation counts as their
vectorized primitives, so the simulated time of a pipeline run is
independent of the backend that executed it — one run yields both the
simulated curve and the measured wall-clock curve.
"""

from __future__ import annotations

import numpy as np

from ..graph import CSRGraph, Graph
from ..primitives.bfs import BFSResult, root_picker
from ..primitives.connectivity import ConnectivityResult
from ..smp import Machine, Ops, resolve_machine
from .team import Team

__all__ = ["prefix_scan", "shiloach_vishkin", "fastsv", "bfs_forest"]


# ===================================================================== #
# Helman–JáJá prefix scan
# ===================================================================== #

_SCAN_FNS = {
    "sum": (np.cumsum, np.add.reduce),
    "max": (np.maximum.accumulate, np.maximum.reduce),
    "min": (np.minimum.accumulate, np.minimum.reduce),
}


def _scan_identity(op: str, dtype: np.dtype):
    """Neutral element of ``op`` for ``dtype`` (prefills idle workers'
    block sums so the combine needs no occupancy bookkeeping)."""
    if op == "sum":
        return dtype.type(0)
    info = np.finfo(dtype) if dtype.kind == "f" else np.iinfo(dtype)
    return dtype.type(info.min if op == "max" else info.max)


def _scan_reduce(rank, lo, hi, x, sums, op):
    sums[rank] = _SCAN_FNS[op][1](x[lo:hi])


def _scan_rescan(rank, lo, hi, x, out, seeds, op):
    seg = _SCAN_FNS[op][0](x[lo:hi])
    seed = seeds[rank]
    if op == "sum":
        seg = seg + seed
    elif op == "max":
        seg = np.maximum(seg, seed)
    else:
        seg = np.minimum(seg, seed)
    out[lo:hi] = seg


def prefix_scan(
    x: np.ndarray,
    op: str = "sum",
    *,
    team: Team,
    machine: Machine | None = None,
) -> np.ndarray:
    """Helman–JáJá three-phase block scan on a worker team.

    Reduce blocks in parallel; scan the p block sums on the calling rank;
    rescan blocks seeded with their exclusive offset.  Exact (bit-equal to
    the vectorized :func:`repro.primitives.prefix_scan`) for integer
    dtypes and for min/max; float sums differ only by association order.
    """
    if op not in _SCAN_FNS:
        raise ValueError(f"unsupported scan op {op!r}; choose from {sorted(_SCAN_FNS)}")
    machine = resolve_machine(machine)
    x = np.asarray(x)
    n = x.size
    if n == 0:
        return np.empty_like(x)
    machine.spawn()
    ident = _scan_identity(op, x.dtype)
    x_sh = team.share(x)
    out = team.empty(n, x.dtype)
    sums = team.full(team.p, ident, x.dtype)
    # phase 1: per-block reduction (idle ranks keep the identity prefill)
    team.parallel_for(n, _scan_reduce, x_sh, sums, op)
    machine.parallel(n, Ops(contig=1, alu=1))
    # phase 2: exclusive scan of the block sums on the calling rank
    inc = _SCAN_FNS[op][0](sums)
    seeds = team.empty(team.p, x.dtype)
    seeds[0] = ident
    seeds[1:] = inc[:-1]
    machine.sequential(min(machine.p, n), Ops(contig=1, alu=1))
    machine.barrier()
    # phase 3: per-block rescan with the seed (identity seed is a no-op)
    team.parallel_for(n, _scan_rescan, x_sh, out, seeds, op)
    machine.parallel(n, Ops(contig=2, alu=1))
    result = np.array(out, copy=True)
    team.release(x_sh, out, sums, seeds)
    return result


# ===================================================================== #
# Shiloach–Vishkin connectivity (engineered schedule)
# ===================================================================== #


def _sv_sweep(rank, lo, hi, D, t, h, eid, c_root, c_newp, c_wid, counts, live):
    """Pure-gather arc sweep: candidates compacted at this block's offset."""
    Dt = D[t[lo:hi]]
    Dh = D[h[lo:hi]]
    cand = Dh < Dt
    live[lo:hi] = Dt != Dh
    k = int(cand.sum())
    counts[rank] = k
    if k:
        c_root[lo : lo + k] = Dt[cand]
        c_newp[lo : lo + k] = Dh[cand]
        c_wid[lo : lo + k] = eid[lo:hi][cand]


def _sv_jump(rank, lo, hi, D, Dn, changed):
    nxt = D[D[lo:hi]]
    changed[rank] = bool((nxt != D[lo:hi]).any())
    Dn[lo:hi] = nxt


def _copy_block(rank, lo, hi, dst, src):
    dst[lo:hi] = src[lo:hi]


def _team_shortcut(team: Team, D, Dn, changed, machine: Machine) -> None:
    """Pointer-jump D until every tree is a star (parallel phases)."""
    while True:
        n = D.size
        team.parallel_for(n, _sv_jump, D, Dn, changed)
        machine.parallel(n, Ops(random=2, alu=1))
        if not changed.any():
            return
        team.parallel_for(n, _copy_block, D, Dn)


def shiloach_vishkin(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    *,
    team: Team,
    machine: Machine | None = None,
) -> ConnectivityResult:
    """SV connectivity (engineered SMP schedule) on a worker team.

    Each round: a parallel arc sweep gathers graft candidates into
    rank-compacted runs; the calling rank replays the vectorized
    root-filter + last-write-wins scatter over them in arc order; parallel
    pointer jumping flattens the forest; settled arcs are pruned.  Output
    — labels, component count, graft-winning forest edges, and round
    count — is bit-identical to
    ``repro.primitives.shiloach_vishkin(mode="engineered")``.
    """
    machine = resolve_machine(machine)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = u.size
    if n == 0:
        return ConnectivityResult(np.arange(n, dtype=np.int64), 0, np.empty(0, np.int64), 0)
    machine.spawn()
    winner = np.full(n, -1, dtype=np.int64)
    if m == 0:
        return ConnectivityResult(np.arange(n, dtype=np.int64), n, np.empty(0, np.int64), 0)
    D = team.share(np.arange(n, dtype=np.int64))
    Dn = team.empty(n, np.int64)
    changed = team.zeros(team.p, bool)
    counts = team.zeros(team.p, np.int64)
    t = team.share(np.concatenate([u, v]))
    h = team.share(np.concatenate([v, u]))
    eid = team.share(np.concatenate([np.arange(m, dtype=np.int64)] * 2))
    A = t.size
    c_root = team.empty(A, np.int64)
    c_newp = team.empty(A, np.int64)
    c_wid = team.empty(A, np.int64)
    live = team.empty(A, bool)
    rounds = 0
    while True:
        rounds += 1
        counts[:] = 0
        team.parallel_for(t.size, _sv_sweep, D, t, h, eid, c_root, c_newp, c_wid, counts, live)
        machine.parallel(t.size, Ops(contig=2, random=2, alu=2))
        any_cand = bool(counts.any())
        if any_cand:
            # stitch the rank-compacted runs back into arc order and replay
            # the vectorized arbitration exactly (root filter, then numpy
            # last-write-wins scatter of D and winner together)
            segs_r, segs_p, segs_w = [], [], []
            for rank in range(team.p):
                k = int(counts[rank])
                if k:
                    lo, _ = team.block(rank, t.size)
                    segs_r.append(np.array(c_root[lo : lo + k], copy=True))
                    segs_p.append(np.array(c_newp[lo : lo + k], copy=True))
                    segs_w.append(np.array(c_wid[lo : lo + k], copy=True))
            roots = np.concatenate(segs_r)
            newp = np.concatenate(segs_p)
            wid = np.concatenate(segs_w)
            isroot = D[roots] == roots
            roots, newp, wid = roots[isroot], newp[isroot], wid[isroot]
            D[roots] = newp
            winner[roots] = wid
            machine.parallel(roots.size, Ops(random=3, alu=1))
        _team_shortcut(team, D, Dn, changed, machine)
        if not any_cand:
            break
        live_mask = np.array(live[: t.size], copy=True)
        nlive = int(live_mask.sum())
        machine.parallel(nlive, Ops(contig=3))
        if nlive == 0:
            break
        t2 = team.share(np.asarray(t)[live_mask])
        h2 = team.share(np.asarray(h)[live_mask])
        eid2 = team.share(np.asarray(eid)[live_mask])
        team.release(t, h, eid)
        t, h, eid = t2, h2, eid2
    labels = np.array(D, copy=True)
    num_components = int((labels == np.arange(n)).sum())
    forest = winner[winner >= 0]
    machine.parallel(n, Ops(contig=2))
    team.release(D, Dn, changed, counts, t, h, eid, c_root, c_newp, c_wid, live)
    return ConnectivityResult(labels, num_components, forest, rounds)


# ===================================================================== #
# FastSV connectivity (min-based hooking)
# ===================================================================== #


def _fastsv_grand(rank, lo, hi, f, fg):
    """Grandparent snapshot: pure gather from ``f`` into this rank's
    private slice of ``fg``."""
    fg[lo:hi] = f[f[lo:hi]]


def _fastsv_gather(rank, lo, hi, f, fg, t, h, ft, gh):
    """Per-arc gathers for the hooking phases (rank-private slices)."""
    ft[lo:hi] = f[t[lo:hi]]
    gh[lo:hi] = fg[h[lo:hi]]


def fastsv(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    *,
    team: Team,
    machine: Machine | None = None,
) -> ConnectivityResult:
    """FastSV connectivity on a worker team.

    The parallel phases are pure gathers (the grandparent snapshot and the
    per-arc ``f[t]`` / ``f[f[h]]`` reads); the calling rank then applies
    the three min-updates (shortcut seed, stochastic hooking, aggressive
    hooking) with ``np.minimum.at``.  Because ``min`` is
    order-independent, the output is bit-identical to
    :func:`repro.primitives.connectivity.fastsv` on every backend and
    worker count — determinism by algebra, not by replayed arbitration.
    Charges the same machine operations as the vectorized primitive.
    """
    machine = resolve_machine(machine)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = u.size
    if n == 0:
        return ConnectivityResult(np.arange(n, dtype=np.int64), 0, np.empty(0, np.int64), 0)
    machine.spawn()
    if m == 0:
        return ConnectivityResult(np.arange(n, dtype=np.int64), n, np.empty(0, np.int64), 0)
    f = team.share(np.arange(n, dtype=np.int64))
    fg = team.empty(n, np.int64)
    t = team.share(np.concatenate([u, v]))
    h = team.share(np.concatenate([v, u]))
    A = t.size
    ft = team.empty(A, np.int64)
    gh = team.empty(A, np.int64)
    rounds = 0
    while True:
        rounds += 1
        team.parallel_for(n, _fastsv_grand, f, fg)
        machine.parallel(n, Ops(random=2))
        team.parallel_for(A, _fastsv_gather, f, fg, t, h, ft, gh)
        machine.parallel(A, Ops(contig=2, random=2))
        # combine on the calling rank: exactly the vectorized min-scatters
        fn = np.array(fg, copy=True)
        np.minimum.at(fn, np.asarray(ft), np.asarray(gh))
        np.minimum.at(fn, np.asarray(t), np.asarray(gh))
        machine.parallel(A, Ops(random=4, alu=2))
        machine.parallel(n, Ops(contig=2))
        if np.array_equal(fn, np.asarray(f)):
            break
        f[:] = fn
    labels = np.array(f, copy=True)
    num_components = int((labels == np.arange(n)).sum())
    machine.parallel(n, Ops(contig=2))
    team.release(f, fg, t, h, ft, gh)
    return ConnectivityResult(labels, num_components, np.empty(0, np.int64), rounds)


# ===================================================================== #
# level-synchronous BFS forest
# ===================================================================== #


def _bfs_expand(
    rank, lo, hi, frontier, indptr, indices, edge_ids, parent,
    offs, counts, b_src, b_dst, b_eid,
):
    """Expand a frontier block: fresh arcs compacted at this rank's
    degree-sum offset (pure gather — ``parent`` is read-only here)."""
    from ..graph.csr import expand_ranges

    f = frontier[lo:hi]
    starts = indptr[f]
    ends = indptr[f + 1]
    arc_idx = expand_ranges(starts, ends)
    srcs = np.repeat(f, ends - starts)
    dsts = indices[arc_idx]
    eids = edge_ids[arc_idx]
    fresh = parent[dsts] < 0
    k = int(fresh.sum())
    counts[rank] = k
    if k:
        off = offs[rank]
        b_src[off : off + k] = srcs[fresh]
        b_dst[off : off + k] = dsts[fresh]
        b_eid[off : off + k] = eids[fresh]


def bfs_forest(
    g: Graph,
    roots: np.ndarray | None = None,
    *,
    team: Team,
    machine: Machine | None = None,
    csr: CSRGraph | None = None,
    cover_all: bool = False,
) -> BFSResult:
    """Level-synchronous BFS forest on a worker team.

    Workers expand frontier blocks into rank-compacted fresh-arc runs;
    the calling rank concatenates them (rank order = frontier arc order)
    and replays the vectorized first-writer-wins discovery
    (``np.unique`` on targets), so ``parent``/``level``/``parent_edge``
    are bit-identical to :func:`repro.primitives.bfs_forest`.
    """
    machine = resolve_machine(machine)
    n = g.n
    parent_out = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return BFSResult(parent_out, level, parent_edge, np.empty(0, np.int64), 0)
    if csr is None:
        csr = g.csr()
        machine.parallel(2 * g.m, Ops(contig=2, random=1, alu=np.log2(max(2 * g.m, 2))))
    machine.spawn()

    indptr = team.share(csr.indptr)
    indices = team.share(csr.indices)
    edge_ids = team.share(csr.edge_ids)
    parent = team.full(n, -1, np.int64)
    frontier_buf = team.empty(n, np.int64)
    cap = max(csr.num_arcs, 1)
    b_src = team.empty(cap, np.int64)
    b_dst = team.empty(cap, np.int64)
    b_eid = team.empty(cap, np.int64)
    counts = team.zeros(team.p, np.int64)
    offs = team.zeros(team.p, np.int64)

    used_roots: list[int] = []
    next_root = root_picker(parent, roots, cover_all)
    max_level = -1

    while True:
        r = next_root()
        if r is None:
            break
        used_roots.append(r)
        parent[r] = r
        level[r] = 0
        frontier = np.array([r], dtype=np.int64)
        depth = 0
        while frontier.size:
            fsize = frontier.size
            frontier_buf[:fsize] = frontier
            # rank output offsets = degree prefix at each block boundary
            deg = np.asarray(indptr)[frontier + 1] - np.asarray(indptr)[frontier]
            csum = np.concatenate(([0], np.cumsum(deg)))
            total_arcs = int(csum[-1])
            for rank in range(team.p):
                lo, _ = team.block(rank, fsize)
                offs[rank] = csum[min(lo, fsize)]
            counts[:] = 0
            team.parallel_for(
                fsize, _bfs_expand, frontier_buf, indptr, indices, edge_ids,
                parent, offs, counts, b_src, b_dst, b_eid,
            )
            machine.parallel(total_arcs + fsize, Ops(random=2, contig=1))
            machine.parallel(total_arcs, Ops(random=1, alu=1))
            segs = [
                (int(offs[rank]), int(counts[rank]))
                for rank in range(team.p)
                if counts[rank]
            ]
            if not segs:
                break
            dsts = np.concatenate([np.asarray(b_dst[o : o + k]) for o, k in segs])
            srcs = np.concatenate([np.asarray(b_src[o : o + k]) for o, k in segs])
            eids = np.concatenate([np.asarray(b_eid[o : o + k]) for o, k in segs])
            uniq, first = np.unique(dsts, return_index=True)
            parent[uniq] = srcs[first]
            parent_edge[uniq] = eids[first]
            depth += 1
            level[uniq] = depth
            machine.parallel(dsts.size, Ops(random=3, alu=np.log2(max(dsts.size, 2))))
            frontier = uniq
        max_level = max(max_level, depth)
    parent_out[:] = parent
    team.release(
        indptr, indices, edge_ids, parent, frontier_buf, b_src, b_dst, b_eid, counts, offs
    )
    return BFSResult(
        parent_out,
        level,
        parent_edge,
        np.asarray(used_roots, dtype=np.int64),
        max_level + 1,
    )
