"""Graph generators for the paper's workloads and the test suite.

The paper's instances are "random graphs of n vertices and m edges created
by randomly adding m unique edges to the vertex set" (§5) — :func:`random_gnm`.
Connectivity is required by the algorithms, so :func:`random_connected_gnm`
plants a random spanning tree first and fills the remaining edges randomly
(this matches how experimental studies of the era generated connected sparse
instances, and preserves the degree statistics of G(n, m) for m >> n).

Additional families cover the paper's discussion and the evaluation of
edge-filtering:

* :func:`path_graph` — the pathological d = O(n) case of §4;
* :func:`complete_graph` / :func:`dense_gnm` — the Woo–Sahni dense regime;
* :func:`cycle_graph`, :func:`star_graph`, :func:`binary_tree`,
  :func:`grid_graph`, :func:`torus_graph` — structured instances;
* :func:`cliques_on_a_path` / :func:`cycles_chain` / :func:`block_graph` —
  graphs with *known* biconnected-component structure, used as ground truth
  in tests (each block is one BCC; cut vertices are the junctions).
"""

from __future__ import annotations

import numpy as np

from .edgelist import Graph

__all__ = [
    "random_gnm",
    "random_connected_gnm",
    "random_tree",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "dense_gnm",
    "binary_tree",
    "grid_graph",
    "torus_graph",
    "cliques_on_a_path",
    "cycles_chain",
    "block_graph",
    "paper_instance",
    "rmat_graph",
    "barabasi_albert",
    "watts_strogatz",
    "geometric_graph",
]


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _sample_unique_edges(
    n: int, m: int, rng: np.random.Generator, forbidden_keys: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``m`` distinct undirected non-loop edges uniformly at random.

    Rejection sampling over the key space ``u*n + v`` (u < v); resamples
    until exactly ``m`` unique keys (outside ``forbidden_keys``) are drawn.
    """
    max_edges = n * (n - 1) // 2
    forbidden = (
        np.asarray(forbidden_keys, dtype=np.int64) if forbidden_keys is not None else None
    )
    budget = max_edges - (forbidden.size if forbidden is not None else 0)
    if m > budget:
        raise ValueError(f"requested m={m} exceeds available edge slots {budget}")
    keys = np.empty(0, dtype=np.int64)
    need = m
    while need > 0:
        a = rng.integers(0, n, size=int(need * 1.3) + 16, dtype=np.int64)
        b = rng.integers(0, n, size=a.size, dtype=np.int64)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        ok = lo != hi
        cand = lo[ok] * np.int64(n) + hi[ok]
        if forbidden is not None and forbidden.size:
            cand = cand[~np.isin(cand, forbidden)]
        keys = np.unique(np.concatenate([keys, cand]))
        need = m - keys.size
    if keys.size > m:
        keys = rng.choice(keys, size=m, replace=False)
    u = keys // n
    v = keys % n
    return u, v


def random_gnm(n: int, m: int, seed=0) -> Graph:
    """Uniform random simple graph with exactly ``n`` vertices, ``m`` edges.

    This is the paper's instance generator (§5).  The result is *not*
    guaranteed connected; the paper's sparse instances with m >= 4n are
    connected with overwhelming probability, but use
    :func:`random_connected_gnm` when connectivity must hold.
    """
    rng = _rng(seed)
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    if n < 2 and m > 0:
        raise ValueError("cannot place edges on fewer than 2 vertices")
    if m == 0:
        return Graph(n, [], [])
    u, v = _sample_unique_edges(n, m, rng)
    return Graph(n, u, v, normalize=True)


def random_tree(n: int, seed=0) -> Graph:
    """Uniform-ish random labelled tree (random parent attachment).

    Each vertex i >= 1 attaches to a uniformly random earlier vertex, then
    labels are shuffled; this yields a random recursive tree with shuffled
    labels (adequate spread of degrees/diameters for testing).
    """
    rng = _rng(seed)
    if n <= 0:
        return Graph(max(n, 0), [], [])
    if n == 1:
        return Graph(1, [], [])
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    children = np.arange(1, n, dtype=np.int64)
    perm = rng.permutation(n).astype(np.int64)
    return Graph(n, perm[parents], perm[children])


def random_connected_gnm(n: int, m: int, seed=0) -> Graph:
    """Connected random graph: a random spanning tree plus random edges.

    Requires ``m >= n - 1``.  The extra ``m - (n-1)`` edges are sampled
    uniformly from the non-tree slots, so for m >> n the instance is
    statistically indistinguishable from a connected G(n, m).
    """
    rng = _rng(seed)
    if n <= 0:
        if m:
            raise ValueError("edges on empty graph")
        return Graph(max(n, 0), [], [])
    if n >= 2 and m < n - 1:
        raise ValueError(f"connected graph on n={n} needs m >= {n - 1}, got {m}")
    tree = random_tree(n, rng)
    extra = m - tree.m
    if extra == 0:
        return tree
    tree_keys = tree.u * np.int64(n) + tree.v
    u, v = _sample_unique_edges(n, extra, rng, forbidden_keys=tree_keys)
    return Graph(
        n, np.concatenate([tree.u, u]), np.concatenate([tree.v, v]), normalize=True
    )


def path_graph(n: int) -> Graph:
    """The chain 0-1-...-(n-1): the paper's pathological d = O(n) case."""
    if n <= 1:
        return Graph(max(n, 0), [], [])
    idx = np.arange(n - 1, dtype=np.int64)
    return Graph(n, idx, idx + 1, normalize=False)


def cycle_graph(n: int) -> Graph:
    """The n-cycle (one biconnected component for n >= 3)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    idx = np.arange(n, dtype=np.int64)
    return Graph(n, idx, (idx + 1) % n)


def star_graph(n: int) -> Graph:
    """Star: centre 0 joined to 1..n-1 (every edge is its own BCC)."""
    if n <= 1:
        return Graph(max(n, 0), [], [])
    return Graph(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64))


def complete_graph(n: int) -> Graph:
    """K_n (a single BCC for n >= 3); the Woo–Sahni dense regime."""
    if n <= 1:
        return Graph(max(n, 0), [], [])
    u, v = np.triu_indices(n, k=1)
    return Graph(n, u.astype(np.int64), v.astype(np.int64), normalize=False)


def dense_gnm(n: int, fraction: float, seed=0) -> Graph:
    """Random graph retaining ``fraction`` of K_n's edges.

    Woo & Sahni's experiments used graphs retaining 70% and 90% of the
    complete graph's edges (paper §1).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    total = n * (n - 1) // 2
    m = max(1, int(round(total * fraction)))
    return random_gnm(n, m, seed=seed)


def binary_tree(n: int) -> Graph:
    """Complete-ish binary tree on n vertices (heap numbering)."""
    if n <= 1:
        return Graph(max(n, 0), [], [])
    child = np.arange(1, n, dtype=np.int64)
    parent = (child - 1) // 2
    return Graph(n, parent, child, normalize=False)


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid (one BCC when rows, cols >= 2)."""
    if rows <= 0 or cols <= 0:
        raise ValueError("grid dimensions must be positive")
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz_u, horiz_v = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    vert_u, vert_v = idx[:-1, :].ravel(), idx[1:, :].ravel()
    return Graph(
        rows * cols, np.concatenate([horiz_u, vert_u]), np.concatenate([horiz_v, vert_v])
    )


def torus_graph(rows: int, cols: int) -> Graph:
    """rows x cols torus (wrap-around grid)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows, cols >= 3")
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.roll(idx, -1, axis=1)
    down = np.roll(idx, -1, axis=0)
    return Graph(
        rows * cols,
        np.concatenate([idx.ravel(), idx.ravel()]),
        np.concatenate([right.ravel(), down.ravel()]),
    )


def cliques_on_a_path(num_cliques: int, clique_size: int) -> tuple[Graph, int]:
    """Cliques chained at shared cut vertices.

    Clique i and clique i+1 share exactly one vertex, so every clique is one
    biconnected component and every shared vertex is an articulation point.
    Returns ``(graph, expected_num_bccs)``.
    """
    if num_cliques <= 0 or clique_size < 2:
        raise ValueError("need num_cliques >= 1 and clique_size >= 2")
    us, vs = [], []
    base = 0
    for _ in range(num_cliques):
        labels = np.arange(base, base + clique_size, dtype=np.int64)
        iu, iv = np.triu_indices(clique_size, k=1)
        us.append(labels[iu])
        vs.append(labels[iv])
        base += clique_size - 1  # last vertex of this clique is first of next
    n = base + 1
    return Graph(n, np.concatenate(us), np.concatenate(vs)), num_cliques


def cycles_chain(num_cycles: int, cycle_len: int) -> tuple[Graph, int]:
    """Simple cycles chained at shared cut vertices (sparse block graph).

    Returns ``(graph, expected_num_bccs)``.
    """
    if num_cycles <= 0 or cycle_len < 3:
        raise ValueError("need num_cycles >= 1 and cycle_len >= 3")
    us, vs = [], []
    base = 0
    for _ in range(num_cycles):
        labels = np.arange(base, base + cycle_len, dtype=np.int64)
        us.append(labels)
        vs.append(np.roll(labels, -1))
        base += cycle_len - 1
    n = base + 1
    return Graph(n, np.concatenate(us), np.concatenate(vs)), num_cycles


def block_graph(num_blocks: int, seed=0) -> tuple[Graph, int]:
    """Random tree of random blocks (cliques/cycles/single edges).

    Builds a connected graph whose biconnected components are exactly the
    generated blocks; blocks are attached at uniformly random existing
    vertices.  Returns ``(graph, expected_num_bccs)``.
    """
    rng = _rng(seed)
    if num_blocks <= 0:
        raise ValueError("need num_blocks >= 1")
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    n = 1  # vertex 0 exists
    blocks = 0
    for _ in range(num_blocks):
        kind = rng.integers(0, 3)
        attach = int(rng.integers(0, n))
        if kind == 0:  # bridge edge
            us.append(np.array([attach], dtype=np.int64))
            vs.append(np.array([n], dtype=np.int64))
            n += 1
        elif kind == 1:  # cycle of length 3..6 through attach
            k = int(rng.integers(3, 7))
            ring = np.concatenate(([attach], np.arange(n, n + k - 1, dtype=np.int64)))
            us.append(ring)
            vs.append(np.roll(ring, -1))
            n += k - 1
        else:  # clique of size 3..5 containing attach
            k = int(rng.integers(3, 6))
            labels = np.concatenate(([attach], np.arange(n, n + k - 1, dtype=np.int64)))
            iu, iv = np.triu_indices(k, k=1)
            us.append(labels[iu])
            vs.append(labels[iv])
            n += k - 1
        blocks += 1
    return Graph(n, np.concatenate(us), np.concatenate(vs)), blocks


def paper_instance(n: int = 1_000_000, edges_per_vertex: float = 4.0, seed=0) -> Graph:
    """An instance from the paper's grid: random connected G(n, m).

    The paper uses n = 1M and m ranging from a few n up to n*log2(n) = 20M
    ("the instance with 1M vertices, 20M edges (m = n log n)").
    """
    m = int(round(n * edges_per_vertex))
    return random_connected_gnm(n, m, seed=seed)


def rmat_graph(
    scale: int,
    edge_factor: float = 8.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=0,
) -> Graph:
    """R-MAT power-law graph on n = 2**scale vertices (Chakrabarti et al.).

    Skewed-degree instances are the irregular workloads later SMP graph
    studies (e.g. the HPCS SSCA benchmarks from the same group) focus on;
    included here as a harder counterpart to the paper's uniform G(n, m).
    Duplicate edges and self-loops are removed, so the realized edge count
    is slightly below ``edge_factor * n``.
    """
    if scale < 1 or scale > 30:
        raise ValueError("scale must be in [1, 30]")
    if not (0 < a and 0 <= b and 0 <= c and a + b + c < 1):
        raise ValueError("quadrant probabilities must satisfy a+b+c < 1")
    rng = _rng(seed)
    n = 1 << scale
    m = int(round(edge_factor * n))
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        u <<= 1
        v <<= 1
        r = rng.random(m)
        # quadrant choice: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1)
        right = (r >= a) & (r < a + b)
        down = (r >= a + b) & (r < a + b + c)
        both = r >= a + b + c
        v += (right | both).astype(np.int64)
        u += (down | both).astype(np.int64)
    return Graph(n, u, v, normalize=True)


def barabasi_albert(n: int, k: int = 2, seed=0) -> Graph:
    """Barabási–Albert preferential-attachment graph (n vertices, k edges
    per arriving vertex).

    Grows from a ``k``-vertex seed clique-less core: each new vertex
    attaches to ``k`` targets drawn proportionally to current degree,
    implemented with the classic *repeated-nodes* trick — every edge
    endpoint is appended to a pool, and sampling uniformly from the pool
    is exactly degree-proportional sampling.  Within one arrival the k
    targets are deduplicated (resampled), so the result has no parallel
    edges; the graph is connected by construction, giving a scale-free
    counterpart to :func:`rmat_graph` whose hub-and-spoke structure
    stresses articulation-point detection (hubs are overwhelmingly
    likely to be cut vertices).

    Realized edge count is ``(n - k) * k``.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k must be < n, got k={k}, n={n}")
    rng = _rng(seed)
    us: list[int] = []
    vs: list[int] = []
    # degree-proportional sampling pool (repeated-nodes method); seeded so
    # the first arrival has someone to attach to
    pool: list[int] = list(range(k))
    for w in range(k, n):
        # sample k distinct targets by current degree (uniform over pool);
        # the pool holds every vertex 0..w-1, so k <= w distinct exist
        targets: set[int] = set()
        while len(targets) < k:
            targets.add(pool[int(rng.integers(0, len(pool)))])
        for t in sorted(targets):
            us.append(t)
            vs.append(w)
            pool.append(t)
            pool.append(w)
    return Graph(n, us, vs, normalize=True)


def watts_strogatz(n: int, k: int = 4, beta: float = 0.1, seed=0) -> Graph:
    """Watts–Strogatz small-world graph (APGL's generator catalog).

    Start from a ring lattice where every vertex connects to its ``k/2``
    nearest neighbours on each side (``k`` must be even), then rewire the
    far endpoint of each lattice edge with probability ``beta`` to a
    uniformly random vertex.  ``beta=0`` is the pure lattice — one big
    biconnected component whose every edge sits on short cycles, the
    intra-block-churn regime the incremental maintenance bench targets;
    small ``beta`` adds the long-range shortcuts that give the
    small-world diameter while keeping high clustering.

    Rewired edges that collide (self-loop or duplicate) are dropped by
    edge normalization, so the realized edge count is slightly below
    ``n * k / 2`` for ``beta > 0`` (the same convention as
    :func:`rmat_graph`).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be a positive even integer, got {k}")
    if k >= n:
        raise ValueError(f"k must be < n, got k={k}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    rng = _rng(seed)
    base = np.arange(n, dtype=np.int64)
    us = np.concatenate([base for _ in range(k // 2)])
    vs = np.concatenate([(base + j) % n for j in range(1, k // 2 + 1)])
    if beta > 0.0:
        rewire = rng.random(us.size) < beta
        targets = rng.integers(0, n, size=int(rewire.sum()), dtype=np.int64)
        new_vs = vs.copy()
        new_vs[rewire] = targets
        keep = new_vs != us  # drop would-be self-loops, keep the rest
        us, vs = us[keep], new_vs[keep]
    return Graph(n, us, vs, normalize=True)


def geometric_graph(n: int, radius: float, seed=0) -> Graph:
    """Random geometric graph: n points in the unit square, edges within
    ``radius`` (scipy cKDTree pair query).

    Models physical-proximity networks (the fault-tolerant-network-design
    use case of the paper's introduction).
    """
    from scipy.spatial import cKDTree

    if n < 0:
        raise ValueError("n must be non-negative")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = _rng(seed)
    pts = rng.random((n, 2))
    tree = cKDTree(pts)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    if pairs.size == 0:
        return Graph(n, [], [])
    return Graph(n, pairs[:, 0], pairs[:, 1], normalize=True)
