"""Request framing: per-shard planned frames with a stable item order.

A batch of workload records (the JSON-lines op schema of
:mod:`repro.service.workload`, each record optionally carrying ``graph``
and ``tenant`` routing keys) is *scattered* into one frame per shard and
the answers are *gathered* back into the original record order.  Each
frame entry keeps the record's global sequence number, so the gather is
a plain placement — no sorting, no reliance on backend completion order.

:func:`split_records` also *plans* each frame: it groups the shard's
query records by (graph, op family) between barriers and converts every
query item to int64 once, in the router.  What a shard worker receives
is the frame's :attr:`Frame.steps` — int64 arrays, graph names and a few
record dicts, never a Python list per item — and it only executes them
(:func:`repro.cluster.backend._run_frame`).

The module also defines the fixed-width answer codec the backends use to
return results through one answer buffer instead of pickles: every
record's answer occupies ``answer_slots(record)`` consecutive rows of an
``int64[total, 2]`` buffer (one row per query item, two columns so
``classify_edges`` fits).  :func:`decode_answer` reproduces the exact
Python/numpy types :meth:`repro.service.engine.ServiceEngine.apply`
returns, which is what makes routed answers bit-comparable to a
single-engine run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..service.engine import BATCH_OPS, QUERY_OPS, UPDATE_OPS
from ..service.workload import op_item_count
from .partition import shard_of

__all__ = [
    "ROUTING_KEYS",
    "Frame",
    "strip_routing",
    "split_records",
    "answer_slots",
    "encode_answer",
    "decode_answer",
    "gather",
]

#: Record keys that address the cluster rather than the engine; the
#: engine ignores them (``ServiceEngine.apply``), and the planner does not
#: count them when it checks a point record's shape.
ROUTING_KEYS = ("graph", "tenant", "seq")

#: Ops answered by a scalar (one slot); everything else is per-item.
_SCALAR_BOOL = ("same_bcc", "is_articulation", "is_bridge")
_MANY_BOOL = ("same_bcc_many", "is_articulation_many", "is_bridge_many")

#: point op -> (the batched op that answers it, the record's item keys)
_POINT_GROUPS = {
    "same_bcc": ("same_bcc_many", ("u", "v")),
    "is_bridge": ("is_bridge_many", ("u", "v")),
    "component_of_edge": ("component_of_edge_many", ("u", "v")),
    "is_articulation": ("is_articulation_many", ("v",)),
}
#: batched op -> the point op whose records join its group
_POINT_OF = {many: point for point, (many, _) in _POINT_GROUPS.items()}


def strip_routing(record: dict) -> dict:
    """The engine-facing op dict: the record minus cluster routing keys."""
    return {k: v for k, v in record.items() if k not in ROUTING_KEYS}


@dataclass
class Frame:
    """One shard's slice of a scattered batch, planned for execution.

    ``seqs``/``graphs``/``offsets`` hold one entry per record, in arrival
    order.  ``steps`` is what the shard worker executes, in order:

    * a *group step* ``(graph, batched op, items, rows)`` answers the
      point records of one (graph, op family) and the batched records
      whose items fit the group shape with one ``engine.query``;
      ``items`` is ``int64[k]`` or ``int64[k, 2]``, ``rows`` the
      ``int64[k]`` answer-buffer row of each item;
    * a *record step* ``(graph, record, offset)`` is one
      ``engine.apply`` whose answer is encoded at ``offset``.

    ``points`` and ``slices`` are the parent's decode plan and never
    travel: ``(point op, seqs, rows)`` per group with point records, and
    ``(seq, op, offset, slots)`` per record decoded by slice.
    """

    shard: int
    #: global sequence number of each record in the originating batch
    seqs: list = field(default_factory=list)
    #: graph name each record addresses (routing already resolved)
    graphs: list = field(default_factory=list)
    #: row offset of each record's answer in the shared answer buffer
    offsets: list = field(default_factory=list)
    #: group and record steps, in execution order
    steps: list = field(default_factory=list)
    #: point records' answers: ``(point op, seqs, rows)`` per group
    points: list = field(default_factory=list)
    #: every other record's answer: ``(seq, op, offset, slots)``
    slices: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.seqs)


def answer_slots(op: dict) -> int:
    """Rows of the answer buffer one record needs (>= 0; 0 = empty batch)."""
    kind = op["op"]
    if kind in QUERY_OPS or kind in UPDATE_OPS:
        return 1
    return op_item_count(op)


def _batch_items(record: dict, kind: str):
    """A batched record's items as an int64 array, or None if they do not
    fit the group shape (``(k, 2)`` pairs or ``(k,)`` vertices, with ``k``
    the record's answer rows)."""
    params = record.get("params")
    items_key = BATCH_OPS[kind][0]
    if type(params) is not dict or len(params) != 1 or items_key not in params:
        return None
    try:
        items = np.asarray(params[items_key], dtype=np.int64)
        rows = len(params[items_key])
    except (TypeError, ValueError, OverflowError):
        return None
    if items_key == "vs":
        return items if items.shape == (rows,) else None
    if items.size == 0 and rows == 0:
        return items.reshape(0, 2)
    return items if items.shape == (rows, 2) else None


class _Group:
    """The queued records of one (graph, batched op) group."""

    __slots__ = ("point_items", "point_rows", "point_seqs", "batch_items", "batch_rows")

    def __init__(self):
        self.point_items: list = []
        self.point_rows: list = []
        self.point_seqs: list = []
        self.batch_items: list = []
        self.batch_rows: list = []

    def arrays(self, kind: str) -> tuple:
        """The group's ``(items, rows)``: point items first, then each
        batched record's items in record order."""
        items = self.batch_items
        rows = [np.arange(offset, offset + len(b), dtype=np.int64)
                for offset, b in zip(self.batch_rows, items)]
        if self.point_items:
            shape = (-1,) if kind == "is_articulation_many" else (-1, 2)
            items = [np.array(self.point_items, dtype=np.int64).reshape(shape), *items]
            rows = [np.array(self.point_rows, dtype=np.int64), *rows]
        if len(items) == 1:
            return items[0], rows[0]
        return np.concatenate(items), np.concatenate(rows)


class _Planner:
    """Builds one shard's :class:`Frame`, grouping as it goes.

    A group stays open across records of other groups until a barrier:
    bench-style frames interleave graphs and ops at random, so runs of
    equal consecutive records are too short to be worth grouping alone.
    """

    __slots__ = ("frame", "groups")

    def __init__(self, shard: int):
        self.frame = Frame(shard)
        self.groups: dict = {}  # (graph, batched op) -> _Group, open groups

    def flush(self) -> None:
        """Emit the open groups as group steps (first-queued first)."""
        frame = self.frame
        for (graph, kind), group in self.groups.items():
            items, rows = group.arrays(kind)
            frame.steps.append((graph, kind, items, rows))
            if group.point_seqs:
                frame.points.append(
                    (_POINT_OF[kind], group.point_seqs, rows[: len(group.point_seqs)])
                )
        self.groups.clear()

    def add(self, seq: int, graph: str, record: dict, offset: int) -> int:
        """Plan one record at answer row ``offset``; returns its slot count.

        A point ``same_bcc``/``is_articulation``/``is_bridge``/
        ``component_of_edge`` record joins the group of its ``*_many``
        op, a batched record whose items fit joins its own op's group,
        ``num_components`` is a record step in place, and anything else —
        an update or a record whose keys do not fit a group — is a
        barrier: the open groups are emitted before its record step.
        """
        frame = self.frame
        frame.seqs.append(seq)
        frame.graphs.append(graph)
        frame.offsets.append(offset)
        kind = record["op"]
        point = _POINT_GROUPS.get(kind)
        if point is not None:
            many, keys = point
            extra = len(record) - len(keys) - 1
            if extra:  # routing keys do not count (ROUTING_KEYS)
                extra -= ("graph" in record) + ("tenant" in record) + ("seq" in record)
            if extra == 0 and all(type(record.get(k)) is int for k in keys):
                group = self.groups.get((graph, many))
                if group is None:
                    group = self.groups[graph, many] = _Group()
                group.point_items.append(record[keys[0]] if len(keys) == 1
                                         else (record[keys[0]], record[keys[1]]))
                group.point_rows.append(offset)
                group.point_seqs.append(seq)
                return 1
        elif kind in BATCH_OPS:
            items = _batch_items(record, kind)
            if items is not None:
                group = self.groups.get((graph, kind))
                if group is None:
                    group = self.groups[graph, kind] = _Group()
                group.batch_items.append(items)
                group.batch_rows.append(offset)
                slots = items.shape[0]
                frame.slices.append((seq, kind, offset, slots))
                return slots
        if kind != "num_components":
            self.flush()
        slots = answer_slots(record)
        frame.steps.append((graph, record, offset))
        frame.slices.append((seq, kind, offset, slots))
        return slots


def split_records(
    records, num_shards: int, default_graph: str = "g0"
) -> tuple[dict, int]:
    """Scatter a record batch into planned per-shard frames.

    Returns ``(frames, total_slots)`` where ``frames`` maps shard id to
    its :class:`Frame` (only shards that received work appear) and
    ``total_slots`` sizes the flat answer buffer.  Sequence numbers are
    the record's position in ``records``; answer offsets are assigned in
    that same order, so the buffer layout is independent of the shard
    split — a one-shard cluster and an eight-shard cluster produce the
    identical buffer.  ``shard_of`` runs once per distinct graph name.
    """
    planners: dict[int, _Planner] = {}
    shard_memo: dict[str, int] = {}
    offset = 0
    for seq, record in enumerate(records):
        graph = record.get("graph", default_graph)
        shard = shard_memo.get(graph)
        if shard is None:
            shard = shard_memo[graph] = shard_of(graph, num_shards)
        planner = planners.get(shard)
        if planner is None:
            planner = planners[shard] = _Planner(shard)
        offset += planner.add(seq, graph, record, offset)
    for planner in planners.values():
        planner.flush()
    return {shard: planner.frame for shard, planner in planners.items()}, offset


def encode_answer(kind: str, answer, out: np.ndarray) -> None:
    """Write one engine answer into its ``int64[slots, 2]`` buffer rows."""
    if kind in _SCALAR_BOOL:
        out[0, 0] = 1 if answer else 0
    elif kind == "component_of_edge":
        out[0, 0] = -1 if answer is None else int(answer)
    elif kind == "num_components" or kind in UPDATE_OPS:
        out[0, 0] = int(answer)
    elif kind in _MANY_BOOL:
        out[:, 0] = np.asarray(answer, dtype=np.int64)
    elif kind == "component_of_edge_many":
        out[:, 0] = np.asarray(answer, dtype=np.int64)
    elif kind == "classify_edges":
        out[:, 0] = np.asarray(answer["block"], dtype=np.int64)
        out[:, 1] = np.asarray(answer["is_bridge"], dtype=np.int64)
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def decode_answer(kind: str, rows: np.ndarray):
    """Reconstruct the engine-typed answer from its buffer rows.

    Types match :meth:`ServiceEngine.apply` exactly: Python ``bool`` /
    ``int`` / ``None`` for point ops, ``bool``/``int64`` numpy arrays
    for batched ops, the two-array dict for ``classify_edges``.
    """
    if kind in _SCALAR_BOOL:
        return bool(rows[0, 0])
    if kind == "component_of_edge":
        val = int(rows[0, 0])
        return None if val < 0 else val
    if kind == "num_components" or kind in UPDATE_OPS:
        return int(rows[0, 0])
    if kind in _MANY_BOOL:
        return rows[:, 0] != 0
    if kind == "component_of_edge_many":
        return rows[:, 0].astype(np.int64, copy=True)
    if kind == "classify_edges":
        return {
            "block": rows[:, 0].astype(np.int64, copy=True),
            "is_bridge": rows[:, 1] != 0,
        }
    raise ValueError(f"unknown op kind {kind!r}")


def gather(frames: dict, answers_by_seq: dict, total: int) -> list:
    """Reassemble per-shard answers into original batch order.

    ``answers_by_seq`` maps sequence number to answer; any sequence a
    backend failed to answer surfaces as an explicit ``KeyError`` rather
    than a silently shifted list.
    """
    out = []
    for seq in range(total):
        try:
            out.append(answers_by_seq[seq])
        except KeyError:
            raise KeyError(
                f"no answer for record {seq} (shards answered "
                f"{sorted(len(f) for f in frames.values())} records)"
            ) from None
    return out
