"""Unit and property tests for Shiloach–Vishkin connectivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, generators as gen
from repro.graph.validate import is_spanning_tree
from repro.primitives import connected_components, fastsv, shiloach_vishkin
from repro.primitives.spanning_tree import root_tree_edges
from repro.smp import FLAT_UNIT_COSTS, Machine, Ops
from tests.strategies import any_graphs


def nx_component_count(g):
    import networkx as nx

    return nx.number_connected_components(g.to_networkx())


def labels_match_networkx(g, labels):
    import networkx as nx

    for comp in nx.connected_components(g.to_networkx()):
        comp = sorted(comp)
        assert len({int(labels[v]) for v in comp}) == 1, "component split"
    # distinct components must have distinct labels
    reps = {}
    for comp in nx.connected_components(g.to_networkx()):
        lab = int(labels[next(iter(comp))])
        assert lab not in reps, "components merged"
        reps[lab] = True
    return True


MODES = ["engineered", "textbook"]


class TestConnectivity:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_networkx(self, mode, corpus):
        for name, g in corpus:
            res = shiloach_vishkin(g.n, g.u, g.v, mode=mode)
            assert res.num_components == nx_component_count(g) + (
                0 if g.n else 0
            ), name
            labels_match_networkx(g, res.labels)

    @pytest.mark.parametrize("mode", MODES)
    def test_forest_is_spanning(self, mode, corpus):
        for name, g in corpus:
            res = shiloach_vishkin(g.n, g.u, g.v, mode=mode)
            assert res.forest_edges.size == g.n - res.num_components, name
            if g.n:
                rooted = root_tree_edges(
                    g.n, g.u[res.forest_edges], g.v[res.forest_edges]
                )
                assert is_spanning_tree(g, rooted.parent), name

    def test_labels_are_representatives(self):
        g = gen.random_gnm(50, 60, seed=1)
        res = connected_components(g)
        # every label is a member of its own component (fixed point)
        assert (res.labels[res.labels] == res.labels).all()

    def test_compact_labels(self):
        g = Graph(6, [0, 2, 4], [1, 3, 5])
        res = connected_components(g)
        compact = res.compact_labels()
        assert set(compact.tolist()) == {0, 1, 2}

    def test_empty_graph(self):
        res = shiloach_vishkin(0, np.array([]), np.array([]))
        assert res.num_components == 0

    def test_no_edges(self):
        res = shiloach_vishkin(5, np.array([]), np.array([]))
        assert res.num_components == 5
        assert res.forest_edges.size == 0

    def test_single_edge(self):
        res = shiloach_vishkin(3, np.array([1]), np.array([2]))
        assert res.num_components == 2
        assert res.forest_edges.tolist() == [0]

    def test_modes_agree(self):
        for seed in range(5):
            g = gen.random_gnm(60, 90, seed=seed)
            a = shiloach_vishkin(g.n, g.u, g.v, mode="engineered")
            b = shiloach_vishkin(g.n, g.u, g.v, mode="textbook")
            # same partition (labels may differ by representative choice,
            # but min-hooking makes both use component minima)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_textbook_runs_log_schedule(self):
        g = gen.random_connected_gnm(256, 512, seed=1)
        m = Machine(4, FLAT_UNIT_COSTS)
        res = shiloach_vishkin(g.n, g.u, g.v, machine=m, mode="textbook")
        assert res.rounds >= 8  # ceil(log2(256))

    def test_engineered_prunes_edges(self):
        g = gen.random_connected_gnm(500, 3000, seed=2)
        m_eng = Machine(1, FLAT_UNIT_COSTS)
        shiloach_vishkin(g.n, g.u, g.v, machine=m_eng, mode="engineered")
        m_txt = Machine(1, FLAT_UNIT_COSTS)
        shiloach_vishkin(g.n, g.u, g.v, machine=m_txt, mode="textbook")
        assert m_eng.totals.work_total < m_txt.totals.work_total

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            shiloach_vishkin(2, np.array([0]), np.array([1]), mode="bogus")

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_random_edge_sets(self, n, data):
        max_m = n * (n - 1) // 2
        m = data.draw(st.integers(0, min(max_m, 3 * n)))
        g = gen.random_gnm(n, m, seed=data.draw(st.integers(0, 10**6)))
        for mode in MODES:
            res = shiloach_vishkin(g.n, g.u, g.v, mode=mode)
            assert res.num_components == nx_component_count(g)
            labels_match_networkx(g, res.labels)
            assert res.forest_edges.size == g.n - res.num_components


def doubled_arc_sv(n, u, v, machine, mode):
    """Shiloach–Vishkin over a doubled arc list (u->v arcs, then v->u):
    the reference the single-list sweep must equal in labels, forest,
    rounds and charges."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = u.size
    D = np.arange(n, dtype=np.int64)
    winner = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return D, np.empty(0, np.int64), 0
    machine.spawn()
    if m == 0:
        return D, np.empty(0, np.int64), 0
    eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    t = np.concatenate([u, v])
    h = np.concatenate([v, u])
    schedule = int(np.ceil(np.log2(max(n, 2))))
    rounds = 0
    while True:
        rounds += 1
        Dt, Dh = D[t], D[h]
        cand = Dh < Dt
        machine.parallel(t.size, Ops(contig=2, random=2, alu=2))
        any_cand = bool(cand.any())
        if any_cand:
            roots, newp, wid = Dt[cand], Dh[cand], eid[cand]
            isroot = D[roots] == roots
            roots, newp, wid = roots[isroot], newp[isroot], wid[isroot]
            D[roots] = newp
            winner[roots] = wid
            machine.parallel(roots.size, Ops(random=3, alu=1))
        if mode == "textbook":
            Dn = D[D]
            stable = bool((Dn == D).all())
            D = Dn
            machine.parallel(n, Ops(random=2, alu=1))
            if rounds >= schedule and not any_cand and stable:
                break
        else:
            while True:
                Dn = D[D]
                machine.parallel(n, Ops(random=2, alu=1))
                if (Dn == D).all():
                    break
                D[:] = Dn
            if not any_cand:
                break
            live = Dt != Dh
            t, h, eid = t[live], h[live], eid[live]
            machine.parallel(int(live.sum()), Ops(contig=3))
            if t.size == 0:
                break
    machine.parallel(n, Ops(contig=2))
    return D, winner[winner >= 0], rounds


class TestSingleListSweep:
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=60, deadline=None)
    @given(g=any_graphs(max_n=60))
    def test_equals_doubled_arc_sweep(self, mode, g):
        got_m, want_m = Machine(p=4), Machine(p=4)
        got = shiloach_vishkin(g.n, g.u, g.v, machine=got_m, mode=mode)
        labels, forest, rounds = doubled_arc_sv(g.n, g.u, g.v, want_m, mode)
        np.testing.assert_array_equal(got.labels, labels)
        np.testing.assert_array_equal(got.forest_edges, forest)
        assert got.rounds == rounds
        assert got_m.report().totals.as_dict() == want_m.report().totals.as_dict()


class TestFastSV:
    def test_matches_networkx(self, corpus):
        for name, g in corpus:
            res = fastsv(g.n, g.u, g.v)
            assert res.num_components == nx_component_count(g), name
            labels_match_networkx(g, res.labels)

    def test_labels_match_sv_minima(self, corpus):
        # SV's min-hooking and FastSV both converge on component minima,
        # so the label arrays agree bit for bit (not just the partition)
        for name, g in corpus:
            sv = shiloach_vishkin(g.n, g.u, g.v)
            fs = fastsv(g.n, g.u, g.v)
            np.testing.assert_array_equal(fs.labels, sv.labels, err_msg=name)

    def test_no_forest_edges(self, corpus):
        # FastSV never materializes a spanning forest — documented contract
        for name, g in corpus:
            assert fastsv(g.n, g.u, g.v).forest_edges.size == 0, name

    def test_rounds_positive_and_bounded(self):
        g = gen.random_connected_gnm(256, 512, seed=1)
        res = fastsv(g.n, g.u, g.v)
        assert 1 <= res.rounds <= g.n

    def test_empty_and_edgeless(self):
        assert fastsv(0, np.array([]), np.array([])).num_components == 0
        res = fastsv(5, np.array([]), np.array([]))
        assert res.num_components == 5
        np.testing.assert_array_equal(res.labels, np.arange(5))

    def test_charges_accumulate(self):
        g = gen.random_connected_gnm(100, 300, seed=4)
        m = Machine(4, FLAT_UNIT_COSTS)
        fastsv(g.n, g.u, g.v, m)
        assert m.totals.work_total > 0

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_random_edge_sets(self, n, data):
        m = data.draw(st.integers(0, min(n * (n - 1) // 2, 3 * n)))
        g = gen.random_gnm(n, m, seed=data.draw(st.integers(0, 10**6)))
        res = fastsv(g.n, g.u, g.v)
        assert res.num_components == nx_component_count(g)
        labels_match_networkx(g, res.labels)
        sv = shiloach_vishkin(g.n, g.u, g.v)
        np.testing.assert_array_equal(res.labels, sv.labels)


class TestHCS:
    def test_matches_networkx(self, corpus):
        from repro.primitives import hirschberg_chandra_sarwate

        for name, g in corpus:
            res = hirschberg_chandra_sarwate(g.n, g.u, g.v)
            assert res.num_components == nx_component_count(g), name
            labels_match_networkx(g, res.labels)

    def test_labels_are_component_minima(self):
        from repro.primitives import hirschberg_chandra_sarwate

        g = gen.random_gnm(60, 90, seed=8)
        sv = shiloach_vishkin(g.n, g.u, g.v)
        hcs = hirschberg_chandra_sarwate(g.n, g.u, g.v)
        np.testing.assert_array_equal(sv.labels, hcs.labels)

    def test_forest_valid(self, corpus):
        from repro.primitives import hirschberg_chandra_sarwate

        for name, g in corpus:
            res = hirschberg_chandra_sarwate(g.n, g.u, g.v)
            assert res.forest_edges.size == g.n - res.num_components, name
            if g.n:
                rooted = root_tree_edges(g.n, g.u[res.forest_edges], g.v[res.forest_edges])
                assert is_spanning_tree(g, rooted.parent), name

    def test_fewer_rounds_than_textbook_sv(self):
        from repro.primitives import hirschberg_chandra_sarwate
        from repro.smp import FLAT_UNIT_COSTS, Machine

        g = gen.random_connected_gnm(400, 1200, seed=9)
        hcs = hirschberg_chandra_sarwate(g.n, g.u, g.v)
        txt = shiloach_vishkin(g.n, g.u, g.v, mode="textbook")
        assert hcs.rounds <= txt.rounds

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=25, deadline=None)
    def test_hypothesis(self, n, data):
        from repro.primitives import hirschberg_chandra_sarwate

        m = data.draw(st.integers(0, min(n * (n - 1) // 2, 3 * n)))
        g = gen.random_gnm(n, m, seed=data.draw(st.integers(0, 10**6)))
        res = hirschberg_chandra_sarwate(g.n, g.u, g.v)
        assert res.num_components == nx_component_count(g)
        assert res.forest_edges.size == g.n - res.num_components
