"""Seeded inputs for the three workloads.

Graphs come from the program's own generators (they are the inputs a
user would feed it); record streams are drawn here with numpy so the
program only ever receives generated inputs.  The same ``seed`` always
gives the same graphs and the same records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph import generators as gen

# ---------------------------------------------------------------------- #
# solve: one-shot calls on four graph families

#: name -> builder(seed).  Sized so no input takes most of a pass.
SOLVE_INPUTS = {
    # m = 4n: tv-filter's density fallback (m <= 4n) runs tv-opt
    "gnm-sparse": lambda s: gen.random_connected_gnm(50_000, 200_000, seed=s),
    # m = n log2 n, the densest point of the paper's Fig. 3
    "gnm-dense": lambda s: gen.random_connected_gnm(16_384, 16_384 * 14, seed=s),
    # ring lattice with few shortcuts: high diameter, many BFS levels
    "small-world": lambda s: gen.watts_strogatz(50_000, 10, 0.002, seed=s),
    # skewed degrees, thousands of isolated vertices and tiny components
    "rmat": lambda s: gen.rmat_graph(14, 8.0, seed=s),
}

#: algorithms each solve input is run with, in call order
SOLVE_ALGORITHMS = ("tv-filter", "auto")


def input_seed(seed: int, index: int) -> int:
    """Distinct generator seed per input, fixed by the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def solve_graphs(seed: int) -> dict:
    return {
        name: build(input_seed(seed, i))
        for i, (name, build) in enumerate(SOLVE_INPUTS.items())
    }


# ---------------------------------------------------------------------- #
# serve-churn: one dense graph, 90% point queries, 10% update batches

CHURN_N = 10_000
CHURN_M = 130_000
#: records per round (every round replays the same stream)
CHURN_RECORDS = 1_000
#: record i is an update batch when i % 10 == CHURN_UPDATE_SLOT
CHURN_UPDATE_SLOT = 4
#: update batches cycle through these kinds; "noop" re-adds present edges
CHURN_UPDATE_CYCLE = ("add", "remove", "add", "remove", "noop")
CHURN_BATCH = 2
#: point-query mix (the service's default mix without its update share)
CHURN_QUERY_MIX = {
    "same_bcc": 0.40,
    "is_articulation": 0.12,
    "is_bridge": 0.12,
    "component_of_edge": 0.18,
    "num_components": 0.08,
}
#: versions (states between update batches) whose answers are checked,
#: besides the final one
CHURN_SAMPLED_VERSIONS = 2


def churn_graph(seed: int):
    return gen.random_connected_gnm(CHURN_N, CHURN_M, seed=input_seed(seed, 100))


class EdgeMirror:
    """The benchmark's own copy of an evolving edge set (keys u*n+v, u<v)."""

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray):
        self.n = n
        self.keys = (np.minimum(u, v) * n + np.maximum(u, v)).tolist()
        self.pos = {k: i for i, k in enumerate(self.keys)}

    def __contains__(self, key: int) -> bool:
        return key in self.pos

    def key(self, a: int, b: int) -> int:
        return min(a, b) * self.n + max(a, b)

    def add(self, key: int) -> None:
        if key not in self.pos:
            self.pos[key] = len(self.keys)
            self.keys.append(key)

    def remove(self, key: int) -> None:
        i = self.pos.pop(key, None)
        if i is None:
            return
        last = self.keys.pop()
        if i < len(self.keys):
            self.keys[i] = last
            self.pos[last] = i

    def sample(self, rng) -> int:
        return self.keys[int(rng.integers(0, len(self.keys)))]

    def edges(self) -> tuple:
        """Canonical (u, v) arrays: u < v, sorted lexicographically."""
        keys = np.sort(np.fromiter(self.keys, dtype=np.int64, count=len(self.keys)))
        return keys // self.n, keys % self.n


@dataclass
class ChurnStream:
    n: int
    records: list  # op dicts, in order
    version: list  # per record: number of update batches applied before it
    effective: list  # per update record: edges it must change (None: query)
    sampled: dict  # version -> (u, v) canonical edge arrays at that version


def churn_stream(seed: int, graph) -> ChurnStream:
    rng = np.random.default_rng([seed, 101])
    n = graph.n
    mirror = EdgeMirror(n, graph.u, graph.v)
    q_names = list(CHURN_QUERY_MIX)
    q_p = np.array([CHURN_QUERY_MIX[k] for k in q_names])
    q_p = q_p / q_p.sum()
    updates = sum(1 for i in range(CHURN_RECORDS) if i % 10 == CHURN_UPDATE_SLOT)
    sampled = set(rng.choice(updates, size=CHURN_SAMPLED_VERSIONS, replace=False).tolist())
    sampled.add(updates)

    def pair():
        a, b = rng.integers(0, n, size=2)
        return [int(a), int(b)]

    def edge_pair():
        if rng.random() < 0.5:
            k = mirror.sample(rng)
            return [k // n, k % n]
        return pair()

    records, version, effective, snaps = [], [], [], {}
    applied = 0
    if 0 in sampled:
        snaps[0] = mirror.edges()
    for i in range(CHURN_RECORDS):
        if i % 10 == CHURN_UPDATE_SLOT:
            kind = CHURN_UPDATE_CYCLE[applied % len(CHURN_UPDATE_CYCLE)]
            edges = []
            for _ in range(CHURN_BATCH):
                if kind == "remove":
                    k = mirror.sample(rng)
                    mirror.remove(k)
                    edges.append([k // n, k % n])
                elif kind == "noop":
                    k = mirror.sample(rng)
                    edges.append([k // n, k % n])
                else:
                    while True:
                        a, b = pair()
                        if a != b and mirror.key(a, b) not in mirror:
                            break
                    mirror.add(mirror.key(a, b))
                    edges.append([a, b])
            op = "remove_edges" if kind == "remove" else "add_edges"
            records.append({"op": op, "edges": edges})
            version.append(applied)
            effective.append(0 if kind == "noop" else CHURN_BATCH)
            applied += 1
            if applied in sampled:
                snaps[applied] = mirror.edges()
            continue
        kind = q_names[int(rng.choice(len(q_names), p=q_p))]
        if kind == "same_bcc":
            u, v = pair()
            records.append({"op": kind, "u": u, "v": v})
        elif kind == "is_articulation":
            records.append({"op": kind, "v": int(rng.integers(0, n))})
        elif kind == "num_components":
            records.append({"op": kind})
        else:
            u, v = edge_pair()
            records.append({"op": kind, "u": u, "v": v})
        version.append(applied)
        effective.append(None)
    return ChurnStream(n, records, version, effective, snaps)


# ---------------------------------------------------------------------- #
# cluster-read: four graphs on two shards, read-only mixed frames

CLUSTER_SHARDS = 2
#: name -> builder(seed)
CLUSTER_GRAPHS = {
    "social": lambda s: gen.random_connected_gnm(20_000, 60_000, seed=s),
    "sparse": lambda s: gen.random_connected_gnm(20_000, 24_000, seed=s),
    "web": lambda s: gen.rmat_graph(13, 6.0, seed=s),
    "ring": lambda s: gen.watts_strogatz(20_000, 4, 0.01, seed=s),
}
#: the shard ``shard_of`` places each graph on (names chosen for two per
#: shard); the run checks it against ``ShardRouter.graphs()``
CLUSTER_PLACEMENT = {"social": 0, "sparse": 0, "web": 1, "ring": 1}
#: frames per round (every round replays the same frames); frame f reads
#: the two graphs of shard f % 2.  One busy shard per frame keeps the run
#: from measuring how the hypervisor schedules two busy vCPUs at once,
#: which made runs of mixed-shard frames differ by a factor of two; 128
#: records keep per-frame process switches and segment set-up a small
#: share (ten runs of 64-record frames spread 17-24%, of 128 5-8%).
CLUSTER_FRAMES = 80
CLUSTER_RECORDS_PER_FRAME = 128
#: share of records that are batched ``*_many`` queries, and their sizes
CLUSTER_BATCH_SHARE = 0.25
CLUSTER_BATCH_ITEMS = (16, 64)
#: frames f with f % CLUSTER_BIG_EVERY >= CLUSTER_BIG_EVERY - 2 (one per
#: shard) also carry one large classify_edges batch, so the frame-latency
#: tail is set by deterministic work, not host noise
CLUSTER_BIG_EVERY = 16
CLUSTER_BIG_ITEMS = 16_384

_POINT = ("same_bcc", "is_articulation", "is_bridge", "component_of_edge", "num_components")
_BATCH = (
    "same_bcc_many", "is_articulation_many", "is_bridge_many",
    "component_of_edge_many", "classify_edges",
)
_EDGE_SHAPED = ("is_bridge", "component_of_edge", "is_bridge_many",
                "component_of_edge_many", "classify_edges")


def cluster_graphs(seed: int) -> dict:
    return {
        name: build(input_seed(seed, 200 + i))
        for i, (name, build) in enumerate(CLUSTER_GRAPHS.items())
    }


def cluster_frames(seed: int, graphs: dict) -> list:
    """Frames (lists of routed records) for one round."""
    rng = np.random.default_rng([seed, 201])

    def pairs(g, k, edge_shaped):
        a = rng.integers(0, g.n, size=(k, 2))
        if edge_shaped:
            real = rng.random(k) < 0.5
            ids = rng.integers(0, g.m, size=int(real.sum()))
            a[real, 0] = g.u[ids]
            a[real, 1] = g.v[ids]
        return a.tolist()

    def record(kind, name, k=1):
        g = graphs[name]
        if kind == "is_articulation_many":
            return {"op": kind, "graph": name,
                    "params": {"vs": rng.integers(0, g.n, size=k).tolist()}}
        if kind in _BATCH:
            return {"op": kind, "graph": name,
                    "params": {"pairs": pairs(g, k, kind in _EDGE_SHAPED)}}
        if kind == "num_components":
            return {"op": kind, "graph": name}
        if kind == "is_articulation":
            return {"op": kind, "graph": name, "v": int(rng.integers(0, g.n))}
        (u, v), = pairs(g, 1, kind in _EDGE_SHAPED)
        return {"op": kind, "graph": name, "u": u, "v": v}

    frames = []
    for f in range(CLUSTER_FRAMES):
        names = [n for n, shard in CLUSTER_PLACEMENT.items() if shard == f % CLUSTER_SHARDS]
        frame = []
        for _ in range(CLUSTER_RECORDS_PER_FRAME):
            name = names[int(rng.integers(0, len(names)))]
            if rng.random() < CLUSTER_BATCH_SHARE:
                kind = _BATCH[int(rng.integers(0, len(_BATCH)))]
                k = int(rng.integers(CLUSTER_BATCH_ITEMS[0], CLUSTER_BATCH_ITEMS[1] + 1))
                frame.append(record(kind, name, k))
            else:
                frame.append(record(_POINT[int(rng.integers(0, len(_POINT)))], name))
        if f % CLUSTER_BIG_EVERY >= CLUSTER_BIG_EVERY - CLUSTER_SHARDS:
            name = names[(f // CLUSTER_BIG_EVERY) % len(names)]
            frame.append(record("classify_edges", name, CLUSTER_BIG_ITEMS))
        frames.append(frame)
    return frames


def item_count(record: dict) -> int:
    """Query items one record carries (1 for point queries and updates)."""
    params = record.get("params")
    if params is None:
        return 1
    return len(params["vs"] if "vs" in params else params["pairs"])
