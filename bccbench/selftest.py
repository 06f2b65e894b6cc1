"""``run.py --selftest``: the answer check accepts right answers and
rejects each kind of corrupted one.

On small graphs with many blocks, bridges and isolated vertices it
confirms that

1. the reference's articulation and bridge sets (derived from the
   networkx edge partition) equal ``networkx.articulation_points`` and
   ``networkx.bridges`` computed directly;
2. the program's one-shot result and its service answers pass;
3. a result or an answer with one element corrupted fails.

Exits 0 only when every case comes out as expected.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.graph import Graph
from repro.graph import generators as gen
from repro.service import ServiceEngine

from reference import reference, same_answer


def _graphs():
    chain, _ = gen.cliques_on_a_path(5, 4)
    blocks, _ = gen.block_graph(30, seed=3)
    sparse = gen.random_gnm(400, 420, seed=5)  # forest-like: bridges, isolated
    # a chain plus a pendant path and two isolated vertices
    n = chain.n
    tail_u = np.arange(n - 1, n + 3)
    extra = Graph(n + 6, np.concatenate([chain.u, tail_u]),
                  np.concatenate([chain.v, tail_u + 1]))
    return {"chain+tail": extra, "block-graph": blocks, "sparse-gnm": sparse}


def _records(g, rng) -> list:
    pairs = rng.integers(0, g.n, size=(24, 2))
    real = rng.integers(0, g.m, size=12)
    pairs[:12, 0], pairs[:12, 1] = g.u[real], g.v[real]
    e = [int(g.u[0]), int(g.v[0])]
    return [
        {"op": "same_bcc", "u": e[0], "v": e[1]},
        {"op": "is_articulation", "v": int(np.flatnonzero(g.degrees() > 1)[0])},
        {"op": "is_bridge", "u": e[0], "v": e[1]},
        {"op": "component_of_edge", "u": e[0], "v": e[1]},
        {"op": "num_components"},
        {"op": "same_bcc_many", "params": {"pairs": pairs.tolist()}},
        {"op": "is_articulation_many", "params": {"vs": list(range(g.n))}},
        {"op": "is_bridge_many", "params": {"pairs": pairs.tolist()}},
        {"op": "component_of_edge_many", "params": {"pairs": pairs.tolist()}},
        {"op": "classify_edges", "params": {"pairs": pairs.tolist()}},
    ]


def _corrupt(answer):
    """The same answer with exactly one element changed."""
    if isinstance(answer, dict):
        block = answer["block"].copy()
        block[0] += 1
        return {"block": block, "is_bridge": answer["is_bridge"]}
    if isinstance(answer, np.ndarray):
        bad = answer.copy()
        bad[0] = (not bad[0]) if bad.dtype == bool else bad[0] + 1
        return bad
    if isinstance(answer, (bool, np.bool_)):
        return not answer
    if answer is None:
        return 0
    return int(answer) + 1


def selftest() -> int:
    import networkx as nx

    rng = np.random.default_rng(0)
    cases = []  # (description, passed-as-expected)
    for name, g in _graphs().items():
        ref = reference(g.n, g.u, g.v, cache=False)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(zip(g.u.tolist(), g.v.tolist()))
        art = sorted(nx.articulation_points(nxg))
        keys = g.u * g.n + g.v
        br = sorted(int(np.searchsorted(keys, min(a, b) * g.n + max(a, b)))
                    for a, b in nx.bridges(nxg))
        cases.append((f"{name}: articulation set equals networkx.articulation_points",
                      np.array_equal(np.flatnonzero(ref.art), art)))
        cases.append((f"{name}: bridge set equals networkx.bridges",
                      np.array_equal(np.flatnonzero(ref.bridge), br)))

        res = repro.biconnected_components(g)
        labels, arts, bridges = res.edge_labels, res.articulation_points(), res.bridges()
        cases.append((f"{name}: program result passes",
                      ref.check_result(labels, arts, bridges) == []))
        moved = labels.copy()
        other = np.flatnonzero(labels != labels[0])
        moved[0] = labels[other[0]]
        cases.append((f"{name}: one edge moved to another block fails",
                      ref.check_result(moved, arts, bridges) == ["edge_partition"]))
        plain = np.flatnonzero(~ref.art)[0]
        cases.append((f"{name}: one extra articulation vertex fails",
                      ref.check_result(labels, np.append(arts, plain), bridges)
                      == ["articulation_set"]))
        cases.append((f"{name}: one missing bridge fails",
                      ref.check_result(labels, arts, bridges[1:]) == ["bridge_set"]))

        engine = ServiceEngine()
        engine.put_graph(name, g)
        for record in _records(g, rng):
            answer = engine.apply(name, record)
            want = ref.expected(record)
            cases.append((f"{name}: {record['op']} answer passes",
                          same_answer(want, answer)))
            cases.append((f"{name}: {record['op']} corrupted answer fails",
                          not same_answer(want, _corrupt(answer))))
    bad = [desc for desc, ok in cases if not ok]
    for desc, ok in cases:
        print(f"  {'ok  ' if ok else 'FAIL'} {desc}")
    print(f"selftest: {len(cases) - len(bad)}/{len(cases)} cases as expected")
    return 0 if not bad else 1
