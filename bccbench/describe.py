"""``run.py --describe`` and ``run.py --rebuild-refs``.

``--describe --seed N`` prints, as markdown tables, the make-up of every
input (n, m, m/n, connected components, isolated-vertex share, the
algorithm ``auto`` picks, whether ``tv-filter`` falls back to tv-opt),
the single-threaded baseline (sequential Tarjan) next to the two solve
algorithms, and a host-noise calibration: a fixed pure-Python loop timed
repeatedly.

``--rebuild-refs --seeds A-B`` empties the reference cache and computes
the networkx reference of every checked graph state for those seeds.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import repro
from repro.smp import Machine

from common import steal_ticks
from inputs import (
    SOLVE_ALGORITHMS,
    churn_graph,
    churn_stream,
    cluster_graphs,
    solve_graphs,
)
from reference import clear_cache, reference


def _components(g) -> int:
    a = coo_matrix((np.ones(g.m), (g.u, g.v)), shape=(g.n, g.n))
    return int(connected_components(a, directed=False)[0])


def _best_of(fn, repeats: int = 3) -> float:
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _makeup_row(name, g, solve: bool) -> str:
    iso = float((g.degrees() == 0).mean())
    row = f"| {name} | {g.n:,} | {g.m:,} | {g.m / g.n:.2f} | {_components(g):,} | {iso:.1%} |"
    if solve:
        auto = repro.biconnected_components(g, algorithm="auto").algorithm
        regions = repro.biconnected_components(
            g, algorithm="tv-filter", machine=Machine(p=1)).report.wall_regions
        row += f" {auto} | {'no' if 'Filtering' in regions else 'yes (tv-opt)'} |"
    return row


def _noise(samples: int = 15) -> str:
    walls = []
    steal0 = steal_ticks()
    for _ in range(samples):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i
        walls.append(time.perf_counter() - t0)
    steal = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK") / sum(walls)
    med = statistics.median(walls)
    cv = statistics.pstdev(walls) / statistics.mean(walls)
    return (f"fixed pure-Python loop, {samples} samples: min {min(walls):.3f} s, "
            f"median {med:.3f} s, max {max(walls):.3f} s, CV {cv:.1%}; "
            f"hypervisor steal {steal:.1%} of the wall")


def describe(seed: int) -> int:
    print(f"seed {seed}\n")
    head = "| input | n | m | m/n | components | isolated |"
    solve = solve_graphs(seed)
    print(head + " auto picks | tv-filter falls back |")
    print("|---" * 8 + "|")
    for name, g in solve.items():
        print(_makeup_row(f"solve/{name}", g, solve=True))
    print()
    print(head)
    print("|---" * 6 + "|")
    print(_makeup_row("serve-churn", churn_graph(seed), solve=False))
    for name, g in cluster_graphs(seed).items():
        print(_makeup_row(f"cluster-read/{name}", g, solve=False))
    print("\n| input | sequential (Tarjan) s | " + " | ".join(
        f"{a} s" for a in SOLVE_ALGORITHMS) + " |")
    print("|---" * (2 + len(SOLVE_ALGORITHMS)) + "|")
    for name, g in solve.items():
        walls = [_best_of(lambda a=a: repro.biconnected_components(g, algorithm=a))
                 for a in ("sequential",) + SOLVE_ALGORITHMS]
        print(f"| {name} | " + " | ".join(f"{w:.3f}" for w in walls) + " |")
    print("\n" + _noise())
    return 0


def rebuild_refs(seeds) -> int:
    clear_cache()
    count = 0
    for seed in seeds:
        graphs = list(solve_graphs(seed).values()) + list(cluster_graphs(seed).values())
        for g in graphs:
            reference(g.n, g.u, g.v)
            count += 1
        stream = churn_stream(seed, churn_graph(seed))
        for u, v in stream.sampled.values():
            reference(stream.n, u, v)
            count += 1
        print(f"seed {seed}: references cached ({count} so far)", flush=True)
    return 0
