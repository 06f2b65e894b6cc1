"""Immutable index snapshots: what queries read under async maintenance.

The stale-while-revalidate engine (``rebuild_mode="async"``) splits
serving from catching up: queries read the last installed
:class:`IndexSnapshot` lock-free (an atomic dict load under the GIL),
while a :class:`~repro.service.scheduler.RebuildScheduler` runs the
engine's one catch-up path off the query path and swaps a new snapshot
in atomically.

A snapshot is a *consistent* view by construction — it pairs one
immutable :class:`~repro.service.index.BCCIndex` with the exact graph
fingerprint and store version it answers for, so a reader can never
observe a torn index (half-old, half-new arrays).  Staleness is a
relation between the snapshot's fingerprint and the store's current
one, measured by the engine as wall time since the content diverged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .index import BCCIndex

__all__ = ["IndexSnapshot"]


@dataclass(frozen=True)
class IndexSnapshot:
    """One immutable, versioned index a query can be served from.

    ``fingerprint``/``version`` identify the exact stored graph content
    the index answers for; ``built_at`` is the engine-clock time the
    snapshot was installed (swap time, not build start); ``source``
    mirrors :attr:`BCCIndex.source` (``build``/``extend``/``shrink``);
    ``log_version`` is the :class:`~repro.service.deltalog.DeltaLog`
    version this snapshot reflects — the log state right after the
    install drained the entries the index covers (0 when the graph has
    never logged a delta).
    """

    index: BCCIndex
    fingerprint: str
    version: int
    built_at: float
    source: str = "build"
    log_version: int = 0

    @property
    def graph(self):
        return self.index.graph

    def fresh_for(self, entry) -> bool:
        """True when this snapshot answers for ``entry``'s exact content."""
        return self.fingerprint == entry.fingerprint

    def __repr__(self) -> str:
        return (
            f"IndexSnapshot(fingerprint={self.fingerprint[:12]}..., "
            f"version={self.version}, source={self.source!r})"
        )
