"""Per-graph write-ahead delta log for index maintenance.

Every effective update an engine applies to a stored graph is appended
here as a :class:`DeltaEntry` *before* any index work happens: the entry
carries the post-update graph and fingerprint, the store version it
applies to, the raw edge payload the incremental paths of
:mod:`repro.service.updates` need to replay it, and a **classification**
decided at append time against the pre-update index (when one is
available):

``"intra-block"``
    An edge-add whose endpoints already share a biconnected component —
    :func:`~repro.service.updates.extend_index` patches it with one
    insert per per-edge array and reuses the incidence arrays.
``"cross-block"``
    An edge-add joining distinct blocks; the block structure merges
    along a path, so only a full rebuild is safe.
``"bridge"``
    A removal of bridge edges only — :func:`~repro.service.updates.shrink_index`
    deletes the affected single-edge components, keeps every other
    edge's label and reindexes them.
``"filtered"``
    A removal of non-bridge edges from an index that carries tv-filter's
    certificate T ∪ F.  By the paper's §4 theorem (Alg. 2) T ∪ F has the
    same blocks as G, so removing edges outside it leaves every other
    edge in its block; edges of T ∪ F are first swapped out of it when
    another BFS parent and another forest edge exist —
    :func:`~repro.service.updates.shrink_index` decides, and deletes
    them (incidences reused) or bails to a rebuild.
``"structural"``
    Any other removal: a bridge mixed with non-bridges, or no
    certificate on hand; cycles may break and blocks may split.
``"unknown"``
    No index for the pre-update content was on hand (mid-chain update on
    a never-resolved fingerprint).  Maintenance treats it optimistically
    and relies on the patch paths' own bail-out guards.

A :class:`DeltaLog` is append-only and **versioned**: ``version`` ticks
on every append and every drain, so an
:class:`~repro.service.snapshot.IndexSnapshot` can record exactly which
log state it reflects.  The log never replays anything itself — the
maintenance strategies of :mod:`repro.service.maintenance` read
:meth:`DeltaLog.entries_through` and decide; :meth:`DeltaLog.catch_up`
drains the prefix a freshly installed index covers.

Chains longer than :data:`MAX_PENDING_DELTAS` mark the log ``broken``
and drop the entries (bounding replay memory exactly like the old
pending-list cap); a broken chain can only be healed by a full rebuild
catching up to the newest content.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..graph import Graph
from .index import BCCIndex

__all__ = [
    "CLASSIFICATIONS",
    "MAX_PENDING_DELTAS",
    "DeltaEntry",
    "DeltaLog",
    "classify_add",
    "classify_remove",
]

#: Pending deltas per graph are capped; longer runs of unqueried updates
#: drop the chain and force one rebuild (bounding replay memory).
MAX_PENDING_DELTAS = 64

#: Everything a delta entry may be classified as (see module docstring).
CLASSIFICATIONS = (
    "intra-block", "cross-block", "bridge", "filtered", "structural", "unknown"
)


def classify_add(index: BCCIndex, added_u, added_v) -> str:
    """Classify an edge-add batch against the pre-update ``index``.

    ``"intra-block"`` iff every added edge's endpoints already share a
    biconnected component (the precondition of
    :func:`~repro.service.updates.extend_index`), else ``"cross-block"``.
    """
    for u, v in zip(np.asarray(added_u).tolist(), np.asarray(added_v).tolist()):
        if np.intersect1d(index.blocks_of(int(u)), index.blocks_of(int(v))).size == 0:
            return "cross-block"
    return "intra-block"


def classify_remove(index: BCCIndex, removed_ids) -> str:
    """Classify an edge-removal batch against the pre-update ``index``.

    ``"bridge"`` iff every removed edge is a bridge, ``"filtered"`` iff
    none is and the index carries a certificate (the two batches
    :func:`~repro.service.updates.shrink_index` can patch; its own guard
    has the last word), else ``"structural"``.
    """
    removed = np.asarray(removed_ids, dtype=np.int64)
    if removed.size == 0:
        return "structural"
    bridges = index._is_bridge[removed]
    if bridges.all():
        return "bridge"
    if index.certificate is not None and not bridges.any():
        return "filtered"
    return "structural"


@dataclass(frozen=True)
class DeltaEntry:
    """One effective update: what it produced, and how it is classified."""

    kind: str  # "add" | "remove"
    graph_after: Graph
    fingerprint_after: str
    #: store version the update produced
    version: int
    #: store version the delta applies to (the pre-update content)
    applies_to: int
    a: object  # add: added_u; remove: removed edge ids (in the prior graph)
    b: object  # add: added_v; remove: unused
    classification: str = "unknown"

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(
                f"unknown classification {self.classification!r}; "
                f"choose from {CLASSIFICATIONS}"
            )

    @property
    def size(self) -> int:
        """Number of edges in the delta."""
        return int(np.asarray(self.a).size)


class DeltaLog:
    """Append-only, versioned chain of deltas for one named graph.

    The chain runs from ``base_fingerprint`` (the last content some index
    was materialized for) to ``head_fingerprint`` (the newest stored
    content).  Appends come from the engine's update path; drains come
    from whichever thread installs an index (query path or the rebuild
    worker), so all state is guarded by a small internal lock.
    """

    __slots__ = (
        "name",
        "base_fingerprint",
        "base_version",
        "head_fingerprint",
        "head_version",
        "version",
        "broken",
        "max_entries",
        "truncations",
        "_entries",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        base_fingerprint: str,
        base_version: int,
        max_entries: int = MAX_PENDING_DELTAS,
    ):
        self.name = name
        self.base_fingerprint = base_fingerprint
        self.base_version = int(base_version)
        self.head_fingerprint = base_fingerprint
        self.head_version = int(base_version)
        self.version = 0
        self.broken = False
        self.max_entries = int(max_entries)
        self.truncations = 0
        self._entries: list[DeltaEntry] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def depth(self) -> int:
        """Number of pending (undrained) entries."""
        return len(self)

    def append(self, entry: DeltaEntry) -> None:
        """Append one delta; overflow breaks the chain (forces a rebuild)."""
        with self._lock:
            self._entries.append(entry)
            self.head_fingerprint = entry.fingerprint_after
            self.head_version = entry.version
            self.version += 1
            if len(self._entries) > self.max_entries:
                # too long to replay profitably; drop the chain and let
                # maintenance take one full rebuild of the head content
                self._entries.clear()
                self.broken = True
                self.truncations += 1

    def entries(self) -> tuple[DeltaEntry, ...]:
        """A stable snapshot of the pending entries (oldest first)."""
        with self._lock:
            return tuple(self._entries)

    def entries_through(self, fingerprint: str) -> tuple[DeltaEntry, ...] | None:
        """The chain prefix ending at ``fingerprint``, or None.

        None means the log cannot take an index from ``base_fingerprint``
        to ``fingerprint``: the chain is broken, empty, or ``fingerprint``
        is not on it.  Callers fall back to a full rebuild.
        """
        with self._lock:
            if self.broken or not self._entries:
                return None
            for i, e in enumerate(self._entries):
                if e.fingerprint_after == fingerprint:
                    return tuple(self._entries[: i + 1])
            return None

    def classifications(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(e.classification for e in self._entries)

    def patch_edges(self) -> int:
        """Total edges across all pending deltas (the patch size)."""
        with self._lock:
            return sum(e.size for e in self._entries)

    def catch_up(self, fingerprint: str, version: int) -> None:
        """An index for ``fingerprint`` was installed: drain what it covers.

        Mid-chain fingerprints (a background build racing fresh updates)
        drop only the applied prefix; the head, or any content off the
        chain entirely (a revert, a replaced graph), rebases the log —
        the chain restarts from the newly materialized content.
        """
        with self._lock:
            self.version += 1
            for i, e in enumerate(self._entries):
                if e.fingerprint_after == fingerprint:
                    if i + 1 < len(self._entries):
                        del self._entries[: i + 1]
                        self.base_fingerprint = fingerprint
                        self.base_version = int(version)
                        return
                    break  # drained the whole chain: rebase below
            if self.broken and fingerprint != self.head_fingerprint:
                return  # still missing dropped entries; stay broken
            self._entries.clear()
            self.broken = False
            self.base_fingerprint = fingerprint
            self.base_version = int(version)
            self.head_fingerprint = fingerprint
            self.head_version = int(version)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"DeltaLog({self.name!r}, depth={len(self._entries)}, "
                f"version={self.version}, broken={self.broken})"
            )
