"""Property test: incremental maintenance is an optimization, not a change.

Two layers of evidence that ``maintenance="auto"`` (delta-log patching
via extend/shrink) answers bit-identically to ``maintenance="full"``
(every catch-up is a from-scratch rebuild) and to a synchronous engine:

* a hypothesis rule-based machine drives an auto engine, a full engine,
  and a synchronous twin through the same randomized churn and asserts
  ``freshness="fresh"`` answers are element-wise identical across all
  three (and stale ``"any"`` answers agree with the Tarjan oracle of
  some real version);
* a deterministic sweep over the QA corpus applies seeded churn —
  biased toward intra-block adds and bridge removals so the incremental
  paths actually fire — and checks the full answer surface, and every
  index array, after every step.
"""

import zlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.tarjan import tarjan_bcc
from repro.graph import generators as gen
from repro.qa.corpus import named_corpus
from repro.service.engine import ServiceEngine
from tests.service.oracle import assert_same_index

N = 10  # small vertex count keeps the per-version Tarjan oracle cheap

pair = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))


class MaintenanceEquivalenceMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16))
    def start(self, seed):
        g = gen.random_gnm(N, 12, seed=seed)
        self.auto = ServiceEngine(
            rebuild_mode="async",
            coalesce_ms=20.0,
            staleness_budget_ms=None,
            cache_size=3,
            maintenance="auto",
        )
        self.full = ServiceEngine(
            rebuild_mode="async",
            coalesce_ms=20.0,
            staleness_budget_ms=None,
            cache_size=3,
            maintenance="full",
        )
        self.sync = ServiceEngine(cache_size=3)
        for eng in (self.auto, self.full, self.sync):
            eng.put_graph("g", g)

    def _update(self, method, batch):
        for eng in (self.auto, self.full, self.sync):
            getattr(eng, method)("g", batch)

    @rule(batch=st.lists(pair, min_size=1, max_size=3))
    def add_edges(self, batch):
        self._update("add_edges", batch)

    @rule(batch=st.lists(pair, min_size=1, max_size=3))
    def remove_edges(self, batch):
        self._update("remove_edges", batch)

    @rule(data=st.data())
    def remove_existing_edge(self, data):
        g = self.sync.graph("g")
        if g.m:
            i = data.draw(st.integers(0, g.m - 1))
            self._update("remove_edges", [(int(g.u[i]), int(g.v[i]))])

    @rule()
    def query_any(self):
        # stale serves keep snapshots (and hence incremental bases) warm
        self.auto.query("g", "num_components")
        self.full.query("g", "num_components")

    @invariant()
    def fresh_answers_identical_across_maintenance_modes(self):
        vs = list(range(N))
        pairs = [(a, b) for a in range(0, N, 3) for b in range(1, N, 4)]
        sync_cuts = self.sync.query("g", "is_articulation_many", vs=vs)
        sync_same = self.sync.query("g", "same_bcc_many", pairs=pairs)
        sync_nc = self.sync.query("g", "num_components")
        for eng in (self.auto, self.full):
            assert np.array_equal(
                eng.query("g", "is_articulation_many", vs=vs,
                          freshness="fresh"),
                sync_cuts,
            )
            assert np.array_equal(
                eng.query("g", "same_bcc_many", pairs=pairs,
                          freshness="fresh"),
                sync_same,
            )
            assert eng.query("g", "num_components", freshness="fresh") == sync_nc
        # the sync engine itself matches a from-scratch oracle
        res = tarjan_bcc(self.sync.graph("g"))
        assert sync_nc == int(res.num_components)

    def teardown(self):
        if hasattr(self, "auto"):
            for eng in (self.auto, self.full):
                eng.drain(timeout=10.0)
                eng.close()
                assert not eng._scheduler.alive
            self.sync.close()


MaintenanceEquivalenceMachine.TestCase.settings = settings(
    max_examples=8, stateful_step_count=8, deadline=None
)
TestMaintenanceEquivalence = MaintenanceEquivalenceMachine.TestCase


def _answer_surface(eng, n):
    vs = list(range(n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, min(a + 4, n))]
    return (
        eng.query("g", "num_components", freshness="fresh"),
        tuple(
            bool(x)
            for x in eng.query(
                "g", "is_articulation_many", vs=vs, freshness="fresh"
            )
        ),
        tuple(
            bool(x)
            for x in eng.query(
                "g", "same_bcc_many", pairs=pairs, freshness="fresh"
            )
        ),
    )


def _churn_step(rng, g, idx_oracle):
    """One seeded update biased toward incrementally patchable shapes."""
    roll = rng.uniform()
    if roll < 0.5:
        # aim for an intra-block add: two vertices of one >=3-vertex block
        labels = idx_oracle.edge_labels
        lab = labels[rng.integers(0, labels.size)]
        sel = labels == lab
        verts = np.unique(np.concatenate([g.u[sel], g.v[sel]]))
        if verts.size >= 3:
            a, b = rng.choice(verts, size=2, replace=False)
            return "add_edges", [(int(a), int(b))]
        return "add_edges", [(int(rng.integers(0, g.n)), int(rng.integers(0, g.n)))]
    if roll < 0.8 and g.m:
        i = int(rng.integers(0, g.m))
        return "remove_edges", [(int(g.u[i]), int(g.v[i]))]
    return "add_edges", [(int(rng.integers(0, g.n)), int(rng.integers(0, g.n)))]


@pytest.mark.parametrize(
    "name,graph", [(n, g) for n, g in named_corpus() if 4 <= g.n <= 64]
)
def test_auto_equals_full_over_corpus_churn(name, graph):
    auto = ServiceEngine(maintenance="auto")
    full = ServiceEngine(maintenance="full")
    for eng in (auto, full):
        eng.put_graph("g", graph)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    assert _answer_surface(auto, graph.n) == _answer_surface(full, graph.n)
    for _ in range(6):
        g = auto.graph("g")
        if g.m == 0:
            break
        method, batch = _churn_step(rng, g, tarjan_bcc(g))
        getattr(auto, method)("g", batch)
        getattr(full, method)("g", batch)
        assert _answer_surface(auto, graph.n) == _answer_surface(full, graph.n)
        assert_same_index(auto.index_for("g"), full.index_for("g"))
    # every effective update must have been caught up by some strategy
    if auto.stats.updates - auto.stats.noop_updates > 0:
        assert auto.stats.rebuilds_incremental + auto.stats.rebuilds_full > 0
