"""Tests for the ServiceEngine: caching, lazy updates, stats, simulation."""

import pytest

from repro.core.tarjan import tarjan_bcc
from repro.graph import generators as gen
from repro.service.driver import oracle_answer
from repro.service.engine import MAX_PENDING_DELTAS, ServiceEngine
from repro.smp import e4500


def fresh_engine(**kw) -> ServiceEngine:
    eng = ServiceEngine(**kw)
    eng.put_graph("g", gen.cycle_graph(8))
    return eng


class TestQueries:
    def test_answers_match_oracle(self):
        eng = ServiceEngine()
        g = gen.random_gnm(40, 70, seed=4)
        eng.put_graph("g", g)
        res = tarjan_bcc(g)
        assert eng.query("g", "num_components") == res.num_components
        for v in range(g.n):
            op = {"op": "is_articulation", "v": v}
            assert eng.query("g", "is_articulation", v=v) == oracle_answer(res, op)
        for u, v in g.edges().tolist()[:20]:
            assert eng.query("g", "is_bridge", u=u, v=v) == oracle_answer(
                res, {"op": "is_bridge", "u": u, "v": v}
            )

    def test_unknown_query_op(self):
        eng = fresh_engine()
        with pytest.raises(ValueError, match="unknown query op"):
            eng.query("g", "shortest_path", u=0, v=1)

    def test_unknown_graph(self):
        eng = ServiceEngine()
        with pytest.raises(KeyError, match="no graph named"):
            eng.query("nope", "num_components")

    def test_bad_cache_size(self):
        with pytest.raises(ValueError, match="cache_size"):
            ServiceEngine(cache_size=0)


class TestCache:
    def test_repeat_query_hits(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.query("g", "is_articulation", v=0)
        st = eng.stats
        assert st.cache_misses == 1 and st.cache_hits == 1 and st.rebuilds == 1

    def test_noop_update_keeps_cache(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        assert eng.add_edges("g", [(0, 1)]) == 0  # already an edge
        assert eng.remove_edges("g", [(0, 4)]) == 0  # not an edge
        eng.query("g", "num_components")
        st = eng.stats
        assert st.noop_updates == 2
        assert st.rebuilds == 1 and st.cache_hits == 1  # no recompute

    def test_revert_rehits_cache(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        assert eng.add_edges("g", [(0, 3)]) == 1
        assert eng.remove_edges("g", [(0, 3)]) == 1
        # content reverted -> original fingerprint -> cached index reused
        eng.query("g", "num_components")
        st = eng.stats
        assert st.rebuilds == 1 and st.cache_hits == 1
        assert st.rebuilds_incremental == 0

    def test_eviction(self):
        eng = ServiceEngine(cache_size=1)
        eng.put_graph("a", gen.cycle_graph(5))
        eng.put_graph("b", gen.path_graph(5))
        eng.query("a", "num_components")
        eng.query("b", "num_components")
        eng.query("a", "num_components")  # evicted, rebuilt
        st = eng.stats
        assert st.evictions >= 2 and st.rebuilds == 3 and st.cache_hits == 0

    def test_same_content_two_names_shares_index(self):
        eng = ServiceEngine()
        eng.put_graph("a", gen.cycle_graph(6))
        eng.put_graph("b", gen.cycle_graph(6))
        eng.query("a", "num_components")
        eng.query("b", "num_components")
        assert eng.stats.rebuilds == 1 and eng.stats.cache_hits == 1


class TestLazyUpdates:
    def test_updates_coalesce_into_one_resolution(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 2)])
        eng.add_edges("g", [(1, 3)])
        assert eng.stats.rebuilds == 1  # nothing recomputed yet (lazy)
        assert eng.query("g", "num_components") == 1
        st = eng.stats
        # both chords lie inside the cycle's single block -> one catch-up
        # patches them both, nothing is rebuilt
        assert st.rebuilds == 1 and st.rebuilds_incremental == 1

    def test_cross_block_add_forces_rebuild(self):
        eng = ServiceEngine()
        eng.put_graph("g", gen.path_graph(6))
        assert eng.query("g", "num_components") == 5
        eng.add_edges("g", [(0, 5)])  # joins all blocks into one cycle
        assert eng.query("g", "num_components") == 1
        st = eng.stats
        assert st.rebuilds == 2 and st.rebuilds_incremental == 0

    def test_bridge_removal_shrinks(self):
        eng = ServiceEngine()
        eng.put_graph("g", gen.path_graph(5))
        eng.query("g", "num_components")
        eng.remove_edges("g", [(2, 3)])
        assert eng.query("g", "num_components") == 3
        st = eng.stats
        assert st.rebuilds == 1 and st.rebuilds_incremental == 1

    def test_non_bridge_removal_rebuilds(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.remove_edges("g", [(0, 1)])  # cycle edge: blocks restructure
        assert eng.query("g", "num_components") == 7  # cycle -> path
        assert eng.stats.rebuilds == 2

    def test_update_before_first_query(self):
        eng = fresh_engine()
        eng.add_edges("g", [(0, 4)])  # no cached base to extend from
        assert eng.query("g", "num_components") == 1
        assert eng.stats.rebuilds == 1

    def test_pending_overflow_forces_rebuild(self):
        eng = ServiceEngine()
        eng.put_graph("g", gen.complete_graph(10))
        eng.query("g", "num_components")
        for i in range(MAX_PENDING_DELTAS + 3):
            # alternate removing/adding one clique edge: every op is effective;
            # odd total -> final state differs from the cached original
            if i % 2 == 0:
                eng.remove_edges("g", [(0, 1)])
            else:
                eng.add_edges("g", [(0, 1)])
        assert eng.query("g", "num_components") == 1  # K10 - 1 edge: biconnected
        assert eng.stats.rebuilds == 2  # chain dropped, single rebuild

    def test_put_graph_replace_clears_pending(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 2)])
        eng.put_graph("g", gen.path_graph(3))
        assert eng.query("g", "num_components") == 2
        assert eng.stats.rebuilds_incremental == 0

    def test_correct_after_many_mixed_updates(self):
        eng = ServiceEngine(algorithm="tv-filter")
        g = gen.random_connected_gnm(30, 45, seed=9)
        eng.put_graph("g", g)
        import numpy as np

        rng = np.random.default_rng(1)
        for _ in range(12):
            pairs = rng.integers(0, 30, size=(3, 2)).tolist()
            if rng.random() < 0.5:
                eng.add_edges("g", pairs)
            else:
                eng.remove_edges("g", pairs)
            cur = eng.graph("g")
            res = tarjan_bcc(cur)
            assert eng.query("g", "num_components") == res.num_components
            v = int(rng.integers(0, 30))
            assert eng.query("g", "is_articulation", v=v) == oracle_answer(
                res, {"op": "is_articulation", "v": v}
            )


class TestApplyAndStats:
    def test_apply_dispatch(self):
        eng = fresh_engine()
        assert eng.apply("g", {"op": "num_components"}) == 1
        assert eng.apply("g", {"op": "same_bcc", "u": 0, "v": 1}) is True
        assert eng.apply("g", {"op": "add_edges", "edges": [[0, 2]]}) == 1
        assert eng.apply("g", {"op": "remove_edges", "edges": [[0, 2]]}) == 1
        with pytest.raises(ValueError, match="unknown workload op"):
            eng.apply("g", {"op": "compact"})

    def test_stats_counters_and_reset(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.query("g", "is_articulation", v=1)
        eng.add_edges("g", [(0, 2)])
        st = eng.stats
        assert st.queries == 2 and st.updates == 1
        assert st.per_op == {"num_components": 1, "is_articulation": 1}
        d = st.as_dict()
        assert d["cache_hit_rate"] == st.cache_hit_rate
        eng.reset_stats()
        assert eng.stats.queries == 0

    def test_hit_rate_empty(self):
        assert ServiceEngine().stats.cache_hit_rate == 0.0


class TestSimulatedMachine:
    def test_regions_charged(self):
        eng = ServiceEngine(machine=e4500(4))
        eng.put_graph("g", gen.cycle_graph(64))
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 10)])
        eng.query("g", "same_bcc", u=0, v=10)
        regions = eng.machine.report().region_times_s()
        assert regions.get("Service-build", 0) > 0
        assert regions.get("Service-extend", 0) > 0
        assert regions.get("Service-query", 0) > 0
        assert eng.machine.time_s > 0
