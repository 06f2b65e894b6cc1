"""Property test: async answers are stale-but-consistent, never torn.

A hypothesis rule-based machine drives an async (stale-while-revalidate)
:class:`ServiceEngine` and a twin synchronous engine through the same
randomized update batches, recording the sequential-Tarjan oracle answer
vector of *every* graph version along the way.  Two invariants:

* ``freshness="any"`` answers must equal the oracle vector of SOME
  version the graph has actually held — a whole batched answer comes
  from one consistent snapshot (stale is allowed, a torn mix of two
  versions is not);
* ``freshness="fresh"`` answers must be bit-identical to the synchronous
  twin (and hence to the newest oracle) — async maintenance is an
  optimization, not a semantics change.

The staleness budget is unbounded and the coalescing window is long, so
background swaps land at arbitrary points relative to the queries —
exactly the racy regime the snapshot design must make invisible.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.tarjan import tarjan_bcc
from repro.graph import generators as gen
from repro.service.engine import ServiceEngine

N = 10  # small vertex count keeps the per-version Tarjan oracle cheap

pair = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))


def _oracle_vector(g) -> tuple:
    """The full answer surface of one graph version, hashable."""
    res = tarjan_bcc(g)
    cuts = set(res.articulation_points().tolist())
    return (
        int(res.num_components),
        tuple(v in cuts for v in range(N)),
    )


class AsyncConsistencyMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16))
    def start(self, seed):
        g = gen.random_gnm(N, 12, seed=seed)
        self.engine = ServiceEngine(
            rebuild_mode="async",
            coalesce_ms=20.0,
            staleness_budget_ms=None,  # stale serves are always legal here
            cache_size=3,
        )
        self.sync_engine = ServiceEngine(cache_size=3)
        self.engine.put_graph("g", g)
        self.sync_engine.put_graph("g", g)
        self.versions = {_oracle_vector(g)}

    def _update(self, method, batch):
        getattr(self.engine, method)("g", batch)
        getattr(self.sync_engine, method)("g", batch)
        self.versions.add(_oracle_vector(self.engine.graph("g")))

    @rule(batch=st.lists(pair, min_size=1, max_size=3))
    def add_edges(self, batch):
        self._update("add_edges", batch)

    @rule(batch=st.lists(pair, min_size=1, max_size=3))
    def remove_edges(self, batch):
        self._update("remove_edges", batch)

    @rule(data=st.data())
    def remove_existing_edge(self, data):
        g = self.engine.graph("g")
        if g.m:
            i = data.draw(st.integers(0, g.m - 1))
            self._update("remove_edges", [(int(g.u[i]), int(g.v[i]))])

    @invariant()
    def any_answer_is_some_valid_version(self):
        vs = list(range(N))
        nc = self.engine.query("g", "num_components")
        cuts = self.engine.query("g", "is_articulation_many", vs=vs)
        # each batched answer must be one historical version whole — a mix
        # of two versions would (generically) match none of them
        assert tuple(bool(x) for x in cuts) in {v[1] for v in self.versions}
        assert nc in {v[0] for v in self.versions}

    @invariant()
    def fresh_is_bit_identical_to_sync(self):
        vs = list(range(N))
        fresh = self.engine.query(
            "g", "is_articulation_many", vs=vs, freshness="fresh"
        )
        twin = self.sync_engine.query("g", "is_articulation_many", vs=vs)
        assert np.array_equal(fresh, twin)
        assert self.engine.query(
            "g", "num_components", freshness="fresh"
        ) == self.sync_engine.query("g", "num_components")

    def teardown(self):
        if hasattr(self, "engine"):
            self.engine.drain(timeout=10.0)
            self.engine.close()
            assert not self.engine._scheduler.alive
            self.sync_engine.close()


AsyncConsistencyMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=8, deadline=None
)
TestAsyncConsistency = AsyncConsistencyMachine.TestCase
