"""Seeded workload generation: JSON-lines op streams for the engine.

Follows the graphdb-benchmarks workload-generator idiom: a workload is a
flat stream of self-describing operation dicts drawn from a configurable
op mix, serialized one per line so streams of any size can be produced and
consumed without holding them in memory twice.  The first line is a header
carrying the full :class:`WorkloadSpec` (including the graph spec), making
a saved workload self-contained: ``load_workload`` + ``instance_graph``
reproduce the exact run.

File format (JSON lines)::

    {"workload": 1, "spec": {"num_ops": 1000, "seed": 7, "mix": {...},
                             "vertex_dist": "uniform", "skew": 3.0,
                             "batch_size": 4, "edge_bias": 0.25,
                             "query_batch": 1,
                             "graph": {"family": "connected-gnm",
                                       "n": 2000, "m": 8000, "seed": 7}}}
    {"op": "same_bcc", "u": 17, "v": 942}
    {"op": "is_articulation", "v": 3}
    {"op": "same_bcc_many", "params": {"pairs": [[17, 942], [3, 8]]}}
    {"op": "classify_edges", "params": {"pairs": [[5, 99], [12, 40]]}}
    {"op": "add_edges", "edges": [[5, 99], [12, 40]]}
    {"op": "remove_edges", "edges": [[5, 99]]}
    ...

Batched query ops carry their items under ``params`` (the
graphdb-benchmarks op-schema shape).  ``query_batch`` > 1 makes the
generator emit every batchable query as its ``*_many`` form with that
many items per record; ``query_batch`` = 1 reproduces the point-query
streams of earlier versions bit-for-bit.

Vertex choice is either ``uniform`` or ``skewed`` (polynomial skew toward
low vertex ids, a Zipf-like hot set: ``v = floor(n * U**skew)`` for
``U ~ Uniform(0, 1)``).  ``edge_bias`` is the probability that edge-shaped
ops (``is_bridge``, ``component_of_edge``, ``remove_edges``) sample a real
edge of the initial graph rather than a random pair — random pairs in a
sparse graph are almost never edges, so the bias controls how often
removals actually take effect (and therefore how much index maintenance
the engine must do).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..graph import Graph
from ..graph.io import read_graph
from .store import make_graph

__all__ = [
    "QUERY_OP_NAMES",
    "BATCH_OP_NAMES",
    "UPDATE_OP_NAMES",
    "BATCHABLE",
    "DEFAULT_MIX",
    "mix_with_update_fraction",
    "op_item_count",
    "WorkloadSpec",
    "Workload",
    "instance_graph",
    "generate_workload",
    "save_workload",
    "load_workload",
]

QUERY_OP_NAMES = (
    "same_bcc",
    "is_articulation",
    "is_bridge",
    "component_of_edge",
    "num_components",
)
#: Batched query ops (items under ``params``; see repro.service.engine).
BATCH_OP_NAMES = (
    "same_bcc_many",
    "is_articulation_many",
    "is_bridge_many",
    "component_of_edge_many",
    "classify_edges",
)
#: Point query op -> its batched form (``query_batch`` > 1 promotes these).
BATCHABLE = {
    "same_bcc": "same_bcc_many",
    "is_articulation": "is_articulation_many",
    "is_bridge": "is_bridge_many",
    "component_of_edge": "component_of_edge_many",
}
UPDATE_OP_NAMES = ("add_edges", "remove_edges")

#: Batched ops whose items are edge-shaped pairs (honour ``edge_bias``).
_EDGE_SHAPED_BATCH = ("is_bridge_many", "component_of_edge_many", "classify_edges")


def op_item_count(op: dict) -> int:
    """Number of individual query items one op record answers.

    Point queries and updates count 1; batched queries count the items
    their kernel answers: ``np.asarray(pairs).size // 2`` pairs, or the
    size of ``vs`` (so ``pairs=[[]]`` counts 0, not 1).  This is the unit
    amortized per-item latency and throughput are measured in.
    """
    kind = op["op"]
    if kind in BATCH_OP_NAMES:
        params = op.get("params", {})
        if kind == "is_articulation_many":
            return _kernel_items(params.get("vs", ()), 1)
        return _kernel_items(params.get("pairs", ()), 2)
    return 1


def _kernel_items(items, width: int) -> int:
    """``np.asarray(items).size // width`` without converting a plain batch.

    A list whose first row is plain (an int for ``vs``, two ints for
    ``pairs``) has ``len(items)`` rows of that shape, or is ragged and
    makes the kernel raise.  Anything else is converted to count it.
    """
    if isinstance(items, np.ndarray):
        return items.size // width
    if len(items) == 0:
        return 0
    first = items[0]
    if width == 1 and type(first) is int:
        return len(items)
    if (width == 2 and type(first) in (list, tuple) and len(first) == 2
            and type(first[0]) is int):
        return len(items)
    try:
        return np.asarray(items).size // width
    except ValueError:
        return len(items)


#: Default op mix: 90% point queries / 10% batch updates.
DEFAULT_MIX = {
    "same_bcc": 0.40,
    "is_articulation": 0.12,
    "is_bridge": 0.12,
    "component_of_edge": 0.18,
    "num_components": 0.08,
    "add_edges": 0.06,
    "remove_edges": 0.04,
}


def mix_with_update_fraction(update_frac: float, base: dict | None = None) -> dict:
    """Rescale a mix so update ops carry ``update_frac`` of the weight."""
    if not 0.0 <= update_frac <= 1.0:
        raise ValueError(f"update_frac must be in [0, 1], got {update_frac}")
    base = dict(base or DEFAULT_MIX)
    q = sum(w for k, w in base.items() if k in QUERY_OP_NAMES)
    u = sum(w for k, w in base.items() if k in UPDATE_OP_NAMES)
    out = {}
    for k, w in base.items():
        if k in UPDATE_OP_NAMES:
            out[k] = w / u * update_frac if u else 0.0
        else:
            out[k] = w / q * (1.0 - update_frac) if q else 0.0
    return out


@dataclass
class WorkloadSpec:
    """Everything needed to (re)generate a workload deterministically."""

    num_ops: int = 1000
    seed: int = 0
    mix: dict = field(default_factory=lambda: dict(DEFAULT_MIX))
    vertex_dist: str = "uniform"  # "uniform" | "skewed"
    skew: float = 3.0
    batch_size: int = 4  # max edges per update batch
    edge_bias: float = 0.25
    #: Churn-phase locality knob: the probability an update targets an
    #: incrementally patchable delta of the *initial* graph — edge adds
    #: sample both endpoints inside one biconnected component (an
    #: intra-block add can never split blocks or bypass a bridge, so the
    #: initial classification stays valid for the whole stream) and edge
    #: removals target initial-graph bridges.  0.0 (default) keeps the
    #: historical uniform sampling bit-for-bit; 1.0 makes every update
    #: maintenance-friendly, which is what the incremental-vs-full bench
    #: leg needs.
    update_locality: float = 0.0
    #: Items per batched query record.  1 keeps every query a point op;
    #: > 1 emits batchable queries as their ``*_many`` form with this
    #: many sampled items each (``num_ops`` still counts records).
    query_batch: int = 1
    #: Graph spec: {"family", "n", "m", "seed"} for a generated instance,
    #: or {"path": "..."} for a graph file.  None means the caller supplies
    #: the graph at generation/run time.
    graph: dict | None = None
    #: Tenant stamped on every generated record (cluster routing key;
    #: see ``repro.cluster``).  None leaves records tenant-free, which is
    #: what the single-engine paths expect.
    tenant: str | None = None

    def __post_init__(self):
        if self.num_ops < 0:
            raise ValueError("num_ops must be >= 0")
        if self.vertex_dist not in ("uniform", "skewed"):
            raise ValueError(f"vertex_dist must be uniform|skewed, got {self.vertex_dist!r}")
        if self.query_batch < 1:
            raise ValueError(f"query_batch must be >= 1, got {self.query_batch}")
        if not 0.0 <= self.update_locality <= 1.0:
            raise ValueError(
                f"update_locality must be in [0, 1], got {self.update_locality}"
            )
        unknown = (set(self.mix) - set(QUERY_OP_NAMES) - set(BATCH_OP_NAMES)
                   - set(UPDATE_OP_NAMES))
        if unknown:
            raise ValueError(f"unknown ops in mix: {sorted(unknown)}")
        if any(w < 0 for w in self.mix.values()):
            raise ValueError("mix weights must be >= 0 and sum to 1.0")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"mix weights must be >= 0 and sum to 1.0, got sum={total!r} "
                f"(the sampler would silently renormalize a skewed mix)"
            )

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        return cls(**d)


@dataclass
class Workload:
    """A spec plus the materialized op stream it generated."""

    spec: WorkloadSpec
    ops: list[dict]

    @property
    def num_queries(self) -> int:
        """Query *records* (a batched op counts once; see num_query_items)."""
        return sum(1 for op in self.ops
                   if op["op"] in QUERY_OP_NAMES or op["op"] in BATCH_OP_NAMES)

    @property
    def num_query_items(self) -> int:
        """Individual query answers produced (batched records weighted)."""
        return sum(op_item_count(op) for op in self.ops
                   if op["op"] not in UPDATE_OP_NAMES)

    @property
    def num_updates(self) -> int:
        return sum(1 for op in self.ops if op["op"] in UPDATE_OP_NAMES)

    def __len__(self) -> int:
        return len(self.ops)


def instance_graph(spec: WorkloadSpec) -> Graph:
    """Materialize the graph named by a workload spec's graph entry."""
    if spec.graph is None:
        raise ValueError("workload spec has no graph entry; pass a graph explicitly")
    if "path" in spec.graph:
        return read_graph(spec.graph["path"])
    return make_graph(
        spec.graph["family"],
        spec.graph["n"],
        m=spec.graph.get("m", 0),
        seed=spec.graph.get("seed", 0),
    )


def generate_workload(spec: WorkloadSpec, graph: Graph | None = None) -> Workload:
    """Generate the op stream for ``spec`` (seeded, hence reproducible).

    The graph is needed to size the vertex universe and to sample real
    edges for edge-biased ops; it is materialized from ``spec.graph``
    unless passed explicitly.
    """
    if graph is None:
        graph = instance_graph(spec)
    n = graph.n
    if n < 2:
        raise ValueError("workload generation needs a graph with >= 2 vertices")
    rng = np.random.default_rng(spec.seed)
    names = sorted(spec.mix)
    weights = np.array([spec.mix[k] for k in names], dtype=float)
    weights = weights / weights.sum()
    kinds = rng.choice(names, size=spec.num_ops, p=weights)

    def vertex() -> int:
        if spec.vertex_dist == "skewed":
            return int(n * rng.random() ** spec.skew)
        return int(rng.integers(0, n))

    def pair(edge_shaped: bool) -> tuple[int, int]:
        if edge_shaped and graph.m and rng.random() < spec.edge_bias:
            i = int(rng.integers(0, graph.m))
            return int(graph.u[i]), int(graph.v[i])
        return vertex(), vertex()

    # Churn locality: classify the *initial* graph once.  Intra-block adds
    # cannot split blocks or create alternate paths around bridges, and a
    # bridge removal leaves every other edge's bridge status intact, so
    # this classification stays valid across the whole generated stream.
    blocks: list[np.ndarray] = []
    bridge_pairs: list[list[int]] = []
    if spec.update_locality > 0.0 and graph.m:
        from ..core.tarjan import tarjan_bcc

        res = tarjan_bcc(graph)
        for eids in res.components():
            vs = np.unique(np.concatenate([graph.u[eids], graph.v[eids]]))
            if vs.size >= 3:
                blocks.append(vs)
        bridge_ids = res.bridges()
        bridge_pairs = [
            [int(graph.u[i]), int(graph.v[i])]
            for i in rng.permutation(bridge_ids).tolist()
        ]

    def local_add_pair() -> tuple[int, int]:
        if not blocks:
            return pair(edge_shaped=False)
        vs = blocks[int(rng.integers(0, len(blocks)))]
        i, j = rng.choice(vs.size, size=2, replace=False)
        return int(vs[i]), int(vs[j])

    def local_remove_pair() -> tuple[int, int]:
        if bridge_pairs:
            u, v = bridge_pairs.pop()
            return u, v
        return pair(edge_shaped=True)

    def batched_op(kind: str) -> dict:
        k = spec.query_batch
        if kind == "is_articulation_many":
            return {"op": kind, "params": {"vs": [vertex() for _ in range(k)]}}
        edge_shaped = kind in _EDGE_SHAPED_BATCH
        return {"op": kind,
                "params": {"pairs": [list(pair(edge_shaped)) for _ in range(k)]}}

    ops: list[dict] = []
    for kind in kinds:
        if spec.query_batch > 1 and kind in BATCHABLE:
            kind = BATCHABLE[kind]
        if kind in BATCH_OP_NAMES:
            ops.append(batched_op(kind))
        elif kind == "same_bcc":
            u, v = pair(edge_shaped=False)
            ops.append({"op": kind, "u": u, "v": v})
        elif kind == "is_articulation":
            ops.append({"op": kind, "v": vertex()})
        elif kind in ("is_bridge", "component_of_edge"):
            u, v = pair(edge_shaped=True)
            ops.append({"op": kind, "u": u, "v": v})
        elif kind == "num_components":
            ops.append({"op": kind})
        elif kind == "add_edges":
            k = int(rng.integers(1, spec.batch_size + 1))
            local = spec.update_locality > 0.0 and rng.random() < spec.update_locality
            sample = local_add_pair if local else (lambda: pair(edge_shaped=False))
            ops.append({"op": kind,
                        "edges": [list(sample()) for _ in range(k)]})
        elif kind == "remove_edges":
            k = int(rng.integers(1, spec.batch_size + 1))
            local = spec.update_locality > 0.0 and rng.random() < spec.update_locality
            sample = local_remove_pair if local else (lambda: pair(edge_shaped=True))
            ops.append({"op": kind,
                        "edges": [list(sample()) for _ in range(k)]})
    if spec.tenant is not None:
        for op in ops:
            op["tenant"] = spec.tenant
    return Workload(spec, ops)


def save_workload(workload: Workload, path) -> None:
    """Write the JSON-lines format (header line, then one op per line)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"workload": 1, "spec": workload.spec.as_dict()}) + "\n")
        for op in workload.ops:
            f.write(json.dumps(op) + "\n")


def load_workload(path) -> Workload:
    """Read the format produced by :func:`save_workload` (round-trips)."""
    with open(path, "r", encoding="utf-8") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad workload header: {exc}") from None
        if header.get("workload") != 1 or "spec" not in header:
            raise ValueError("not a workload file (missing {'workload': 1} header)")
        spec = WorkloadSpec.from_dict(header["spec"])
        ops = []
        for lineno, raw in enumerate(f, start=2):
            line = raw.strip()
            if not line:
                continue
            op = json.loads(line)
            kind = op.get("op")
            if (kind not in QUERY_OP_NAMES and kind not in BATCH_OP_NAMES
                    and kind not in UPDATE_OP_NAMES):
                raise ValueError(f"line {lineno}: unknown op {kind!r}")
            ops.append(op)
    return Workload(spec, ops)
