"""The tv-filter certificate path: removals become patches, not rebuilds.

tv-filter's Filtering step keeps a BFS tree T plus a spanning forest F of
G − T; by the paper's §4 theorem T ∪ F has the same blocks as G.  The
index carries that certificate, so removing edges outside it — or edges
of it the certificate can be refit around — is patched by
``shrink_index`` instead of rebuilt.  These tests pin:

* which builds carry a certificate (tv-filter's filter step only);
* every patch is bit-identical to a fresh build, and its certificate is
  still a valid one, along a long chain;
* a removal the certificate cannot be refit around, or one after a
  level-gap-2 add made the certificate stale, still rebuilds — and the
  rebuild restores the certificate;
* a hypothesis machine over graphs dense enough for the filter to run:
  auto ≡ full ≡ sync ≡ Tarjan.

The certificate itself is never compared against a fresh build's: the
BFS tree and forest of a patched graph may legitimately differ.  Only
the BFS levels, which are distances, must agree.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import biconnected_components
from repro.core.tarjan import tarjan_bcc
from repro.graph import Graph, generators as gen
from repro.primitives.connectivity import shiloach_vishkin
from repro.primitives.spanning_tree import bfs_spanning_tree
from repro.service.deltalog import classify_add, classify_remove
from repro.service.engine import ServiceEngine
from repro.service.index import BCCIndex
from repro.service.maintenance import STRATEGIES
from repro.service.updates import (
    apply_add_edges,
    apply_remove_edges,
    extend_index,
    shrink_index,
)
from tests.service.oracle import assert_same_index


def dense_graph(n=60, m=400, seed=1):
    """Connected and dense enough (m > 4n) that tv-filter does not fall back."""
    return gen.random_connected_gnm(n, m, seed=seed)


def with_pendant(g):
    """``g`` plus a new vertex hanging off vertex 0 by a bridge."""
    return Graph(g.n + 1, np.append(g.u, 0), np.append(g.v, g.n))


def with_ear(g):
    """``g`` plus a triangle 0–x–y on two new vertices x, y: BFS from 0
    puts both on level 1, so {x, y} is the only edge of G − T at either
    and lies in F, and neither has another neighbour one level up."""
    x, y = g.n, g.n + 1
    return Graph(g.n + 2, np.append(g.u, [0, 0, x]), np.append(g.v, [x, y, y]))


def assert_same_as_build(idx: BCCIndex) -> None:
    assert_same_index(idx, BCCIndex.build(idx.graph))


def _same_partition(a, b) -> bool:
    pairs = np.unique(np.stack([a, b], axis=1), axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def assert_certificate_valid(idx: BCCIndex) -> None:
    """T is a BFS tree of the graph, F a spanning forest of G − T, and
    ``component`` labels the components of G − T."""
    g, cert = idx.graph, idx.certificate
    assert not (cert.tree & ~cert.mask).any()
    np.testing.assert_array_equal(cert.level, bfs_spanning_tree(g).level)
    tu, tv = g.u[cert.tree], g.v[cert.tree]
    assert (np.abs(cert.level[tu] - cert.level[tv]) == 1).all()
    # one tree edge up from every non-root vertex
    child = np.where(cert.level[tu] > cert.level[tv], tu, tv)
    np.testing.assert_array_equal(np.sort(child), np.flatnonzero(cert.level > 0))
    rest = ~cert.tree
    comps = shiloach_vishkin(g.n, g.u[rest], g.v[rest])
    forest = cert.mask & ~cert.tree
    fcomps = shiloach_vishkin(g.n, g.u[forest], g.v[forest])
    assert int(forest.sum()) == g.n - fcomps.num_components  # acyclic
    assert _same_partition(comps.labels, fcomps.labels)  # spanning
    assert _same_partition(comps.labels, cert.component)


def patch_removal(idx: BCCIndex, ids):
    """(graph without edges ``ids``, its shrink patch or None)."""
    g = idx.graph
    ng, removed = apply_remove_edges(g, [(int(g.u[i]), int(g.v[i])) for i in ids])
    return ng, shrink_index(idx, ng, removed)


def deep_tree_edge(idx: BCCIndex) -> int:
    """A tree edge below level 1: its child has other neighbours one level
    up (level-1 vertices have only the root above them)."""
    g, cert = idx.graph, idx.certificate
    deep = cert.tree & (np.minimum(cert.level[g.u], cert.level[g.v]) >= 1)
    return int(np.flatnonzero(deep)[0])


def first_other_parent_edge(idx: BCCIndex, e: int) -> int:
    """The edge that replaces tree edge ``e`` when it is removed: the
    lowest-id other edge from its child to a vertex one level up (-1 when
    there is none)."""
    g, level = idx.graph, idx.certificate.level
    a, b = int(g.u[e]), int(g.v[e])
    child = a if level[a] > level[b] else b
    inc = np.flatnonzero((g.u == child) | (g.v == child))
    inc = inc[inc != e]
    up = inc[level[g.u[inc] + g.v[inc] - child] == level[child] - 1]
    return int(up[0]) if up.size else -1


def filtered_edges(idx: BCCIndex) -> np.ndarray:
    return np.flatnonzero(~idx.certificate.mask)


def intra_block_non_edge(idx: BCCIndex, rng, gap):
    """A non-edge pair inside one block whose BFS levels differ by ``gap``
    (``gap=None``: by at most one), or None when there is none."""
    g, cert = idx.graph, idx.certificate
    for _ in range(20000):
        a, b = (int(x) for x in rng.integers(0, g.n, 2))
        if a == b or idx.edge_id(a, b) is not None or not idx.same_bcc(a, b):
            continue
        d = abs(int(cert.level[a]) - int(cert.level[b]))
        if (d <= 1) if gap is None else (d == gap):
            if cert.component[a] == cert.component[b]:
                return a, b
    return None


def pair_of(g, i):
    return [(int(g.u[i]), int(g.v[i]))]


class TestWhoCarriesACertificate:
    def test_tv_filter_build_carries_t_union_f(self):
        g = dense_graph()
        res = biconnected_components(g, algorithm="tv-filter")
        cert = res.certificate
        assert cert is not None
        assert cert.mask.shape == cert.tree.shape == (g.m,)
        assert cert.level.shape == cert.component.shape == (g.n,)
        assert int(cert.tree.sum()) == g.n - 1
        assert BCCIndex(res).certificate is cert
        assert_certificate_valid(BCCIndex(res))

    @pytest.mark.parametrize("algorithm", ["tv-opt", "tv-smp", "fastbcc", "sequential"])
    def test_other_algorithms_carry_none(self, algorithm):
        res = biconnected_components(dense_graph(), algorithm=algorithm)
        assert res.certificate is None

    def test_density_fallback_carries_none(self):
        g = gen.random_connected_gnm(60, 200, seed=2)  # m <= 4n
        idx = BCCIndex.build(g)
        assert idx.certificate is None
        # without a certificate a non-bridge removal stays structural
        i = int(np.flatnonzero(~idx._is_bridge)[0])
        assert classify_remove(idx, [i]) == "structural"


class TestShrinkFiltered:
    def test_removal_outside_t_union_f_keeps_the_certificate(self):
        idx = BCCIndex.build(dense_graph())
        ids = filtered_edges(idx)[:3]
        assert classify_remove(idx, ids) == "filtered"
        _, patched = patch_removal(idx, ids)
        assert patched is not None and patched.source == "shrink"
        assert_same_as_build(patched)
        np.testing.assert_array_equal(
            patched.certificate.mask, np.delete(idx.certificate.mask, ids)
        )

    def test_tree_edge_removal_reparents(self):
        idx = BCCIndex.build(dense_graph())
        i = deep_tree_edge(idx)
        assert classify_remove(idx, [i]) == "filtered"
        _, patched = patch_removal(idx, [i])
        assert patched is not None
        assert_same_as_build(patched)
        assert_certificate_valid(patched)

    def test_tree_edge_removal_outside_f_keeps_the_forest(self, monkeypatch):
        # a tree edge whose child's first other parent edge one level up
        # lies outside F: F loses no edge, so it is kept without an SV pass
        import repro.service.updates as updates

        idx = BCCIndex.build(dense_graph())
        g, cert = idx.graph, idx.certificate
        forest = cert.mask & ~cert.tree
        i = next(e for e in np.flatnonzero(cert.tree).tolist()
                 if (up := first_other_parent_edge(idx, e)) >= 0 and not forest[up])
        calls = []
        real = updates.shiloach_vishkin
        monkeypatch.setattr(updates, "shiloach_vishkin",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        _, patched = patch_removal(idx, [i])
        monkeypatch.undo()
        assert calls == []
        assert patched is not None and patched.source == "shrink"
        assert_same_as_build(patched)
        assert_certificate_valid(patched)
        np.testing.assert_array_equal(patched.certificate.component, cert.component)
        np.testing.assert_array_equal(
            patched.certificate.mask & ~patched.certificate.tree, np.delete(forest, i)
        )

    def test_forest_edge_removal_refits_the_forest(self):
        idx = BCCIndex.build(dense_graph())
        forest = np.flatnonzero(idx.certificate.mask & ~idx.certificate.tree)
        _, patched = patch_removal(idx, forest[:2])
        assert patched is not None
        assert_same_as_build(patched)
        assert_certificate_valid(patched)

    @pytest.mark.parametrize("edge", [(0, "x"), ("x", "y")])
    def test_removal_the_certificate_cannot_avoid_bails(self, edge):
        # the ear's tree edge has no other parent one level up, and its
        # forest edge is the only G − T edge at x and y; either removal
        # turns the ear into bridges
        g = with_ear(dense_graph())
        idx = BCCIndex.build(g)
        name = {"x": g.n - 2, "y": g.n - 1}
        a, b = (name.get(v, v) for v in edge)
        i = idx.edge_id(a, b)
        assert idx.certificate.mask[i]
        assert classify_remove(idx, [i]) == "filtered"  # the patch guard decides
        _, patched = patch_removal(idx, [i])
        assert patched is None

    def test_bridge_plus_non_bridge_batch_bails(self):
        g3 = with_pendant(dense_graph())
        idx = BCCIndex.build(g3)
        bridge = int(np.flatnonzero(idx._is_bridge)[0])
        filt = int(filtered_edges(idx)[0])
        assert classify_remove(idx, [bridge, filt]) == "structural"
        _, patched = patch_removal(idx, [bridge, filt])
        assert patched is None

    def test_bridge_removal_drops_certificate(self):
        idx = BCCIndex.build(with_pendant(dense_graph()))
        assert idx.certificate is not None
        _, patched = patch_removal(idx, np.flatnonzero(idx._is_bridge)[:1])
        assert patched is not None and patched.certificate is None
        assert_same_as_build(patched)

    def test_shrink_strategy_qualifies_filtered(self):
        assert "filtered" in STRATEGIES["incremental-shrink"].classes


class TestExtendCarriesCertificate:
    def test_level_gap_one_add_keeps_certificate(self):
        idx = BCCIndex.build(dense_graph())
        a, b = intra_block_non_edge(idx, np.random.default_rng(0), gap=None)
        ng, au, av = apply_add_edges(idx.graph, [(a, b)])
        ext = extend_index(idx, ng, au, av)
        assert ext is not None and ext.certificate is not None
        # the added edge is not in the certificate; old edges keep their flags
        new_id = ext.edge_id(a, b)
        assert not ext.certificate.mask[new_id]
        np.testing.assert_array_equal(
            np.delete(ext.certificate.mask, new_id), idx.certificate.mask
        )
        np.testing.assert_array_equal(
            np.delete(ext.certificate.tree, new_id), idx.certificate.tree
        )
        assert_certificate_valid(ext)

    def test_level_gap_two_add_drops_certificate(self):
        idx = BCCIndex.build(dense_graph())
        pair = intra_block_non_edge(idx, np.random.default_rng(0), gap=2)
        assert pair is not None
        ng, au, av = apply_add_edges(idx.graph, [pair])
        assert classify_add(idx, au, av) == "intra-block"
        ext = extend_index(idx, ng, au, av)
        assert ext is not None and ext.certificate is None
        assert_same_as_build(ext)


def test_chain_of_removals_and_adds_matches_build():
    """500 vertices, 5,000 edges: two-edge removals anywhere (T, F or
    filtered) interleaved with intra-block adds; every patch is
    bit-identical to a build and leaves a valid certificate."""
    idx = BCCIndex.build(gen.random_connected_gnm(500, 5000, seed=3))
    rng = np.random.default_rng(7)
    removals = patched = hit_t_union_f = 0
    for step in range(30):
        g = idx.graph
        if step % 3 == 2:
            pair = intra_block_non_edge(idx, rng, gap=None)
            ng, au, av = apply_add_edges(g, [pair])
            nxt = extend_index(idx, ng, au, av)
            assert nxt is not None
        else:
            ids = rng.choice(g.m, size=2, replace=False)
            removals += 1
            hit_t_union_f += bool(idx.certificate.mask[ids].any())
            ng, nxt = patch_removal(idx, ids)
            if nxt is None:
                nxt = BCCIndex.build(ng)
            else:
                patched += 1
        assert_same_as_build(nxt)
        assert_certificate_valid(nxt)
        idx = nxt
    assert removals == 20 and hit_t_union_f >= 5 and patched >= 15


class TestEngine:
    def _engine(self, g):
        eng = ServiceEngine(maintenance="auto")
        eng.put_graph("g", g)
        eng.query("g", "num_components")
        return eng

    @pytest.mark.parametrize("part", ["filtered", "tree", "forest"])
    def test_removal_is_patched(self, part):
        eng = self._engine(dense_graph())
        idx = eng.index_for("g")
        cert = idx.certificate
        i = {"filtered": lambda: int(filtered_edges(idx)[0]),
             "tree": lambda: deep_tree_edge(idx),
             "forest": lambda: int(np.flatnonzero(cert.mask & ~cert.tree)[0])}[part]()
        eng.remove_edges("g", pair_of(idx.graph, i))
        assert eng.delta_log_for("g").classifications() == ("filtered",)
        eng.query("g", "num_components")
        s = eng.stats
        assert s.rebuilds_incremental == 1 and s.rebuilds_full == 0
        assert s.rebuild_wall_by_strategy.get("incremental-shrink", 0) > 0
        assert eng.index_for("g").certificate is not None

    def test_removal_the_certificate_cannot_avoid_rebuilds(self):
        g = with_ear(dense_graph())
        eng = self._engine(g)
        eng.remove_edges("g", [(g.n - 2, g.n - 1)])
        eng.query("g", "num_components")
        s = eng.stats
        assert s.rebuilds_full == 1 and s.rebuilds_incremental == 0
        idx = eng.index_for("g")
        assert idx.certificate is not None and idx.num_bridges() == 2

    def test_gap_two_add_then_removal_rebuilds(self):
        eng = self._engine(dense_graph())
        idx = eng.index_for("g")
        old_filtered = int(filtered_edges(idx)[0])
        eng.add_edges("g", [intra_block_non_edge(idx, np.random.default_rng(0), gap=2)])
        eng.query("g", "num_components")
        ext = eng.index_for("g")
        assert eng.stats.rebuilds_incremental == 1
        assert ext.certificate is None
        # the next non-bridge removal rebuilds, and the rebuild restores it
        eng.remove_edges("g", pair_of(idx.graph, old_filtered))
        assert eng.delta_log_for("g").classifications() == ("structural",)
        eng.query("g", "num_components")
        assert eng.stats.rebuilds_full == 1
        assert eng.index_for("g").certificate is not None

    def test_guard_checks_the_index_it_patches(self):
        # add and remove queued without a query between: the removal is
        # classified without an index ("unknown"), the plan qualifies, and
        # the shrink guard sees the stale certificate the add left behind
        eng = self._engine(dense_graph())
        idx = eng.index_for("g")
        eng.add_edges("g", [intra_block_non_edge(idx, np.random.default_rng(0), gap=2)])
        g = eng.graph("g")
        i = int(np.flatnonzero(~idx.certificate.mask)[0])
        eng.remove_edges("g", pair_of(idx.graph, i))
        assert eng.delta_log_for("g").classifications() == ("intra-block", "unknown")
        eng.query("g", "num_components")
        assert eng.stats.rebuilds_full == 1
        assert g.m == eng.graph("g").m + 1
        assert_same_as_build(eng.index_for("g"))


# --------------------------------------------------------------------------- #
# property: removal-heavy churn over graphs the filter runs on

# A complete core on K vertices plus a sparse tail of cycles and pendant
# edges: m > 4N keeps tv-filter on its filter path, and the tail gives
# removals blocks to split (a dense random graph is one block whatever
# edge goes).
N, K = 16, 12


def core_and_tail(attach):
    """K_K on 0..K-1, then each tail vertex joins the earlier ones listed."""
    us, vs = [], []
    for a in range(K):
        for b in range(a + 1, K):
            us.append(a)
            vs.append(b)
    for w, targets in zip(range(K, N), attach):
        for t in sorted(set(t % w for t in targets)):
            us.append(t)
            vs.append(w)
    return Graph(N, us, vs, normalize=True)


class CertificateChurnMachine(RuleBasedStateMachine):
    @initialize(attach=st.lists(st.lists(st.integers(0, N), min_size=1, max_size=2),
                                min_size=N - K, max_size=N - K))
    def start(self, attach):
        g = core_and_tail(attach)
        kw = dict(rebuild_mode="async", coalesce_ms=20.0,
                  staleness_budget_ms=None, cache_size=3)
        self.auto = ServiceEngine(maintenance="auto", **kw)
        self.full = ServiceEngine(maintenance="full", **kw)
        self.sync = ServiceEngine(cache_size=3)
        for eng in (self.auto, self.full, self.sync):
            eng.put_graph("g", g)

    def _update(self, method, batch):
        for eng in (self.auto, self.full, self.sync):
            getattr(eng, method)("g", batch)

    @rule(data=st.data(), k=st.integers(1, 2))
    def remove_filtered_edges(self, data, k):
        # edges outside a fresh build's T ∪ F; the engines' own certificate
        # may be older, so some of these still classify as structural
        g = self.sync.graph("g")
        cert = biconnected_components(g, algorithm="tv-filter").certificate
        if cert is None:
            return
        out = np.flatnonzero(~cert.mask)
        if out.size == 0:
            return
        picks = data.draw(st.lists(st.sampled_from(out.tolist()), min_size=1,
                                   max_size=k, unique=True))
        self._update("remove_edges", [(int(g.u[i]), int(g.v[i])) for i in picks])

    @rule(data=st.data())
    def remove_any_edge(self, data):
        g = self.sync.graph("g")
        if g.m:
            i = data.draw(st.integers(0, g.m - 1))
            self._update("remove_edges", [(int(g.u[i]), int(g.v[i]))])

    @rule(data=st.data())
    def remove_tail_edge(self, data):
        g = self.sync.graph("g")
        tail = np.flatnonzero(g.v >= K)
        if tail.size:
            i = int(data.draw(st.sampled_from(tail.tolist())))
            self._update("remove_edges", [(int(g.u[i]), int(g.v[i]))])

    @rule(a=st.integers(0, N - 1), b=st.integers(0, N - 1))
    def add_edge(self, a, b):
        self._update("add_edges", [(a, b)])

    @rule()
    def query_any(self):
        # stale serves keep snapshots (and hence incremental bases) warm
        self.auto.query("g", "num_components")
        self.full.query("g", "num_components")

    @invariant()
    def fresh_answers_identical_and_exact(self):
        g = self.sync.graph("g")
        oracle = tarjan_bcc(g)
        edges = np.stack([g.u, g.v], axis=1).tolist()
        art = np.zeros(N, dtype=bool)
        art[oracle.articulation_points()] = True
        bridge = np.zeros(g.m, dtype=bool)
        bridge[oracle.bridges()] = True
        idx = self.sync.index_for("g")
        if idx.certificate is not None:
            assert_certificate_valid(idx)
        for eng in (self.sync, self.auto, self.full):
            fresh = "fresh" if eng is not self.sync else "any"
            got = eng.query("g", "classify_edges", pairs=edges, freshness=fresh)
            np.testing.assert_array_equal(got["block"], oracle.edge_labels)
            np.testing.assert_array_equal(got["is_bridge"], bridge)
            np.testing.assert_array_equal(
                eng.query("g", "is_articulation_many", vs=list(range(N)),
                          freshness=fresh),
                art,
            )

    def teardown(self):
        if hasattr(self, "auto"):
            for eng in (self.auto, self.full):
                eng.drain(timeout=10.0)
                eng.close()
                assert not eng._scheduler.alive
            self.sync.close()


CertificateChurnMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestCertificateChurn = CertificateChurnMachine.TestCase
