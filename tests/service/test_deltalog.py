"""Tests for the per-graph write-ahead delta log."""

import numpy as np
import pytest

from repro.graph import Graph, generators as gen
from repro.service.deltalog import (
    CLASSIFICATIONS,
    MAX_PENDING_DELTAS,
    DeltaEntry,
    DeltaLog,
    classify_add,
    classify_remove,
)
from repro.service.index import BCCIndex
from repro.service.updates import apply_add_edges


def _entry(kind: str, fingerprint: str, version: int, edges: int = 1,
           classification: str = "unknown") -> DeltaEntry:
    """A structurally valid entry; the log never inspects the graph."""
    return DeltaEntry(
        kind=kind,
        graph_after=gen.path_graph(3),
        fingerprint_after=fingerprint,
        version=version,
        applies_to=version - 1,
        a=np.zeros(edges, dtype=np.int64),
        b=np.zeros(edges, dtype=np.int64),
        classification=classification,
    )


class TestClassify:
    def test_add_intra_block(self):
        idx = BCCIndex.build(gen.cycle_graph(6))
        assert classify_add(idx, [0], [3]) == "intra-block"

    def test_add_cross_block(self):
        # every path edge is its own block, so (0, 2) joins two blocks
        idx = BCCIndex.build(gen.path_graph(4))
        assert classify_add(idx, [0], [2]) == "cross-block"

    def test_add_mixed_batch_is_cross_block(self):
        g = gen.cycle_graph(4)
        idx = BCCIndex.build(Graph(6, np.append(g.u, 3), np.append(g.v, 4)))
        # (0, 2) is intra-block, but (4, 5)... 5 is isolated: no common block
        assert classify_add(idx, [0, 4], [2, 5]) == "cross-block"

    def test_remove_bridge(self):
        idx = BCCIndex.build(gen.path_graph(4))
        assert classify_remove(idx, [0]) == "bridge"

    def test_remove_structural(self):
        idx = BCCIndex.build(gen.cycle_graph(4))
        assert classify_remove(idx, [0]) == "structural"

    def test_remove_with_certificate_is_filtered(self):
        # any non-bridge batch, inside T ∪ F or not: the shrink patch
        # decides whether the certificate can be kept clear of it
        idx = BCCIndex.build(gen.random_connected_gnm(40, 300, seed=5))
        out = np.flatnonzero(~idx.certificate.mask)
        inside = np.flatnonzero(idx.certificate.mask)
        assert classify_remove(idx, out[:3]) == "filtered"
        assert classify_remove(idx, [int(out[0]), int(inside[0])]) == "filtered"

    def test_remove_empty_is_structural(self):
        idx = BCCIndex.build(gen.path_graph(3))
        assert classify_remove(idx, np.zeros(0, np.int64)) == "structural"


class TestDeltaEntry:
    def test_rejects_unknown_classification(self):
        with pytest.raises(ValueError, match="classification"):
            _entry("add", "f1", 2, classification="bogus")

    def test_size_counts_payload_edges(self):
        assert _entry("add", "f1", 2, edges=3).size == 3

    def test_all_classifications_constructible(self):
        for c in CLASSIFICATIONS:
            assert _entry("add", "f1", 2, classification=c).classification == c


class TestDeltaLogAppend:
    def test_append_moves_head_and_ticks_version(self):
        log = DeltaLog("g", "base", 1)
        assert log.version == 0 and log.head_fingerprint == "base"
        log.append(_entry("add", "f1", 2))
        log.append(_entry("add", "f2", 3))
        assert len(log) == 2 and log.depth == 2
        assert log.head_fingerprint == "f2" and log.head_version == 3
        assert log.base_fingerprint == "base" and log.base_version == 1
        assert log.version == 2
        assert log.classifications() == ("unknown", "unknown")

    def test_patch_edges_sums_entry_sizes(self):
        log = DeltaLog("g", "base", 1)
        log.append(_entry("add", "f1", 2, edges=3))
        log.append(_entry("remove", "f2", 3, edges=2))
        assert log.patch_edges() == 5

    def test_overflow_breaks_chain(self):
        log = DeltaLog("g", "base", 1, max_entries=3)
        for i in range(4):
            log.append(_entry("add", f"f{i}", i + 2))
        assert log.broken and len(log) == 0 and log.truncations == 1
        # head still tracks newest content for the healing rebuild
        assert log.head_fingerprint == "f3"
        assert log.entries_through("f3") is None

    def test_default_cap_is_module_constant(self):
        assert DeltaLog("g", "base", 1).max_entries == MAX_PENDING_DELTAS


class TestEntriesThrough:
    def test_prefix_to_fingerprint(self):
        log = DeltaLog("g", "base", 1)
        for i in range(3):
            log.append(_entry("add", f"f{i}", i + 2))
        chain = log.entries_through("f1")
        assert [e.fingerprint_after for e in chain] == ["f0", "f1"]

    def test_none_for_empty_or_off_chain(self):
        log = DeltaLog("g", "base", 1)
        assert log.entries_through("base") is None
        log.append(_entry("add", "f0", 2))
        assert log.entries_through("nope") is None


class TestCatchUp:
    def test_mid_chain_drops_applied_prefix(self):
        log = DeltaLog("g", "base", 1)
        for i in range(3):
            log.append(_entry("add", f"f{i}", i + 2))
        log.catch_up("f0", 2)
        assert len(log) == 2
        assert log.base_fingerprint == "f0" and log.base_version == 2
        assert [e.fingerprint_after for e in log.entries()] == ["f1", "f2"]

    def test_head_drains_everything(self):
        log = DeltaLog("g", "base", 1)
        log.append(_entry("add", "f0", 2))
        log.append(_entry("add", "f1", 3))
        log.catch_up("f1", 3)
        assert len(log) == 0 and not log.broken
        assert log.base_fingerprint == "f1" == log.head_fingerprint

    def test_off_chain_content_rebases(self):
        log = DeltaLog("g", "base", 1)
        log.append(_entry("add", "f0", 2))
        log.catch_up("reverted", 5)  # e.g. a replace() to older content
        assert len(log) == 0
        assert log.base_fingerprint == "reverted" and log.base_version == 5

    def test_broken_stays_broken_until_head(self):
        log = DeltaLog("g", "base", 1, max_entries=1)
        log.append(_entry("add", "f0", 2))
        log.append(_entry("add", "f1", 3))  # overflow: broken, head=f1
        assert log.broken
        log.catch_up("f0", 2)  # stale build finishing late: not the head
        assert log.broken
        log.catch_up("f1", 3)  # full rebuild of the head heals the log
        assert not log.broken
        assert log.base_fingerprint == "f1"

    def test_catch_up_ticks_version(self):
        log = DeltaLog("g", "base", 1)
        log.append(_entry("add", "f0", 2))
        v = log.version
        log.catch_up("f0", 2)
        assert log.version == v + 1


class TestRealChain:
    def test_chain_from_real_updates(self):
        from repro.service.store import graph_fingerprint

        g0 = gen.cycle_graph(6)
        idx = BCCIndex.build(g0)
        log = DeltaLog("g", graph_fingerprint(g0), 1)
        g1, au, av = apply_add_edges(g0, [(0, 2)])
        log.append(DeltaEntry(
            kind="add", graph_after=g1,
            fingerprint_after=graph_fingerprint(g1), version=2, applies_to=1,
            a=au, b=av, classification=classify_add(idx, au, av),
        ))
        assert log.classifications() == ("intra-block",)
        chain = log.entries_through(graph_fingerprint(g1))
        assert chain is not None and chain[0].graph_after is g1
