"""Batch edge updates and incremental index maintenance.

Updates never mutate a graph (``Graph`` is immutable): :func:`apply_add_edges`
and :func:`apply_remove_edges` normalize a batch against the current edge
set and return the replacement graph plus the *effective* delta — the edges
that actually changed.  No-op batches (adding existing edges, removing
absent ones) return the graph unchanged, so its fingerprint — and any
cached index — stays valid.

For effective deltas the engine marks the index dirty and recomputes
lazily on the next query.  Three structural facts let the recompute be
avoided entirely in the common cases (the same spirit as the paper's §4
filtering insight, which bounds the edges that can matter — at most
``2(n-1)`` survive into TV — instead of recomputing over all of them):

* **Adding** edge ``{u, v}`` where ``u`` and ``v`` already share a block
  ``B`` cannot change any other block: every simple u–v path stays inside
  ``B`` (leaving ``B`` through a cut vertex would force the path to revisit
  it), so every cycle through the new edge lies in ``B + {u, v}``.  The new
  edge simply joins ``B`` — :func:`extend_index` inserts it at its
  sorted position in each per-edge array and reuses the base index's
  incidence arrays, without running any algorithm or sorting.
* **Removing** a bridge deletes a single-edge block and leaves the
  partition of every remaining edge unchanged — :func:`shrink_index`
  keeps the surviving labels and reindexes them with the plain
  constructor, since later block ids move down.
* **Removing** an edge outside tv-filter's certificate T ∪ F (the §4
  theorem of Alg. 2: for a BFS tree T of G and a spanning forest F of
  G − T, T ∪ F has the same blocks as G) leaves T a BFS tree and F a
  spanning forest of what remains, so the certificate still holds and
  every other edge keeps its block — :func:`shrink_index` again.  The
  removed edge's block keeps both its endpoints (a non-bridge block has
  at least three edges), so the articulation set carries over too.
  The theorem holds for *any* BFS tree (a spanning tree whose levels
  are the distances from its root) and *any* spanning forest of G − T,
  so a removed edge of T ∪ F is patched the same way once
  :func:`refit_certificate` finds a certificate of G that avoids it:
  another parent one level up for a tree edge's child, and a forest of
  G − T that does without the removed edges.

The certificate comes from the index's build (``result.certificate``,
set only when tv-filter's ``filter=forest`` step ran).  An intra-block
add keeps it when every added edge joins vertices at most one BFS level
apart in one F-component — T stays a BFS tree and F still spans; any
other add, and every bridge removal, drops it, so the next non-bridge
removal rebuilds and the rebuild brings a fresh certificate.

Intra-block adds and filtered removals do not sort: adds insert at
``searchsorted`` positions, removals delete by mask, and
:meth:`BCCIndex._patch` shares the base index's incidence arrays (no
vertex joins or leaves a block), so such a patch is a few O(m) copies.

Anything else (an edge between blocks, a removal the certificate cannot
be refit around or made without one) returns None and the engine falls
back to a full rebuild via the registered algorithm (default
``tv-filter``, whose BFS filter keeps the rebuild cheap on dense graphs).
"""

from __future__ import annotations

import numpy as np

from ..core.result import BCCResult, FilterCertificate
from ..graph import Graph
from ..primitives.connectivity import shiloach_vishkin
from .index import BCCIndex

__all__ = [
    "normalize_pairs",
    "apply_add_edges",
    "apply_remove_edges",
    "extend_index",
    "refit_certificate",
    "shrink_index",
]


def normalize_pairs(n: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize a batch of vertex pairs: ``lo < hi``, unique, in range.

    Self-loops are dropped (a simple graph has none to add or remove).
    """
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    arr = arr.reshape(-1, 2)
    if (arr < 0).any() or (arr >= n).any():
        raise ValueError(f"edge endpoint out of range [0, {n})")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if lo.size:
        key = lo * np.int64(n) + hi
        _, idx = np.unique(key, return_index=True)
        lo, hi = lo[idx], hi[idx]
    return lo, hi


def _edge_keys(g: Graph) -> np.ndarray:
    return g.u * np.int64(max(g.n, 1)) + g.v


def apply_add_edges(g: Graph, pairs) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Add a batch of edges; returns ``(new_graph, added_u, added_v)``.

    ``added_u/added_v`` hold only the *effective* additions (canonical
    ``u < v``, not previously present).  When the batch is a no-op the
    original graph object is returned unchanged.
    """
    lo, hi = normalize_pairs(g.n, pairs)
    if lo.size == 0:
        return g, lo, hi
    # the batch comes back sorted by key, so inserting each new edge at
    # its searchsorted position keeps the edge list canonical: a memcpy
    keys = _edge_keys(g)
    probe = lo * np.int64(g.n) + hi
    ins = np.searchsorted(keys, probe)
    if g.m:
        new = keys[np.minimum(ins, g.m - 1)] != probe
        lo, hi, ins = lo[new], hi[new], ins[new]
    if lo.size == 0:
        return g, lo, hi
    ng = Graph(g.n, np.insert(g.u, ins, lo), np.insert(g.v, ins, hi),
               normalize=False)
    return ng, lo, hi


def apply_remove_edges(g: Graph, pairs) -> tuple[Graph, np.ndarray]:
    """Remove a batch of edges; returns ``(new_graph, removed_edge_ids)``.

    ``removed_edge_ids`` are canonical edge indices *in the old graph*.
    Pairs that are not edges are ignored; a fully no-op batch returns the
    original graph object unchanged.
    """
    lo, hi = normalize_pairs(g.n, pairs)
    if lo.size == 0 or g.m == 0:
        return g, np.zeros(0, np.int64)
    keys = _edge_keys(g)
    probe = lo * np.int64(g.n) + hi
    pos = np.minimum(np.searchsorted(keys, probe), g.m - 1)
    present = keys[pos] == probe
    removed = pos[present]
    if removed.size == 0:
        return g, removed
    mask = np.zeros(g.m, dtype=bool)
    mask[removed] = True
    return g.subgraph_without_edges(mask), removed


def _keeps_certificate(cert: FilterCertificate, added_u, added_v) -> bool:
    """True iff adding these edges leaves ``cert`` a valid certificate:
    no endpoint pair more than one BFS level apart (T stays a BFS tree)
    and each pair inside one F-component (F still spans G − T)."""
    lu, lv = cert.level[added_u], cert.level[added_v]
    return bool(
        (np.abs(lu - lv) <= 1).all()
        and (cert.component[added_u] == cert.component[added_v]).all()
    )


def extend_index(
    index: BCCIndex,
    new_graph: Graph,
    added_u: np.ndarray,
    added_v: np.ndarray,
    fingerprint: str | None = None,
) -> BCCIndex | None:
    """Index for ``new_graph`` (= index.graph + added edges) without recompute.

    Succeeds only when every added edge's endpoints already share a block
    (see module docstring for why that makes the relabelling exact);
    otherwise returns None and the caller must rebuild.
    """
    g = index.graph
    if new_graph.n != g.n:
        return None
    # each added edge must fall inside one existing block
    added_labels = np.empty(added_u.size, dtype=np.int64)
    for i in range(added_u.size):
        a = index.blocks_of(int(added_u[i]))
        b = index.blocks_of(int(added_v[i]))
        common = np.intersect1d(a, b, assume_unique=True)
        if common.size == 0:
            return None
        added_labels[i] = common[0]
    # every per-edge array grows by an insert at the added keys' sorted
    # positions among the old ones — the same positions apply_add_edges
    # inserted the edges at
    n = np.int64(max(g.n, 1))
    added_keys = added_u * n + added_v
    order = np.argsort(added_keys)
    added_keys = added_keys[order]
    ins = np.searchsorted(index._edge_keys, added_keys)
    keys = np.insert(index._edge_keys, ins, added_keys)
    if not np.array_equal(new_graph.u * n + new_graph.v, keys):
        return None  # shouldn't happen; bail out to a rebuild rather than corrupt
    labels = np.insert(index.result.edge_labels, ins, added_labels[order])
    # the added edges stay outside the carried certificate
    cert = index.certificate
    if cert is not None and _keeps_certificate(cert, added_u, added_v):
        cert = FilterCertificate(np.insert(cert.mask, ins, False),
                                 np.insert(cert.tree, ins, False),
                                 cert.level, cert.component)
    else:
        cert = None
    # intra-block adds change no vertex's block membership, so the
    # articulation set and the incidence arrays carry over; old edges
    # keep their bridge flag, and an added edge always lands in a block
    # that already has edges (the only intra-block pair of a single-edge
    # block is the bridge itself, which already exists), so it is never
    # a bridge
    return BCCIndex._patch(index, new_graph, labels, edge_keys=keys,
                           bridge_mask=np.insert(index._is_bridge, ins, False),
                           source="extend", fingerprint=fingerprint,
                           certificate=cert)


def refit_certificate(
    cert: FilterCertificate, g: Graph, removed_ids: np.ndarray
) -> FilterCertificate | None:
    """A certificate of ``g`` that avoids ``removed_ids``, sliced to the
    surviving edges; None when this cheap repair cannot find one.

    Removed edges outside T ∪ F need no repair.  A removed tree edge
    hands its lower endpoint to another neighbour one level up (T stays
    a BFS tree with the same levels); the forest is then refit as a
    spanning forest of what remains of G − T, unless F lost no edge to
    the removals or to the new tree edges, when F is kept as it is.  That
    works when every removed edge still has its endpoints connected in
    G − T minus the removals: then some spanning forest of G − T avoids
    them all, and by the §4 theorem removing them leaves every other edge
    in its block.
    """
    keep = np.ones(g.m, dtype=bool)
    keep[removed_ids] = False
    if not cert.mask[removed_ids].any():
        return FilterCertificate(cert.mask[keep], cert.tree[keep], cert.level,
                                 cert.component)
    level = cert.level
    tree = cert.tree.copy()
    in_forest = cert.mask & ~cert.tree
    forest_lost = bool(in_forest[removed_ids].any())
    for e in removed_ids[cert.tree[removed_ids]].tolist():
        a, b = int(g.u[e]), int(g.v[e])
        child = a if level[a] > level[b] else b
        inc = np.flatnonzero(((g.u == child) | (g.v == child)) & keep)
        other = g.u[inc] + g.v[inc] - child
        up = inc[level[other] == level[child] - 1]
        if up.size == 0:
            return None
        tree[e] = False
        tree[up[0]] = True
        forest_lost |= bool(in_forest[up[0]])
    if not forest_lost:
        # F lies in G' − T' ⊆ G − T and spans G − T, so it spans G' − T'
        # too, whose components are G − T's: no forest refit is needed
        comp = cert.component
        if (comp[g.u[removed_ids]] != comp[g.v[removed_ids]]).any():
            return None
        return FilterCertificate((in_forest | tree)[keep], tree[keep], level, comp)
    # F minus the removals and the new tree edges, then the non-tree
    # edges that join its pieces: a spanning forest of them spans G' − T'
    forest = np.flatnonzero(in_forest & ~tree & keep)
    pieces = shiloach_vishkin(g.n, g.u[forest], g.v[forest]).labels
    rest = np.flatnonzero(keep & ~tree & ~cert.mask)
    rest = rest[pieces[g.u[rest]] != pieces[g.v[rest]]]
    ids = np.concatenate([forest, rest])
    sv = shiloach_vishkin(g.n, g.u[ids], g.v[ids])
    comp = sv.labels
    if (comp[g.u[removed_ids]] != comp[g.v[removed_ids]]).any():
        return None
    mask = tree.copy()
    mask[ids[sv.forest_edges]] = True
    return FilterCertificate(mask[keep], tree[keep], level, comp)


def shrink_index(
    index: BCCIndex,
    new_graph: Graph,
    removed_ids: np.ndarray,
    fingerprint: str | None = None,
) -> BCCIndex | None:
    """Index for ``new_graph`` (= index.graph − removed edges) without recompute.

    Succeeds for two kinds of batch (see module docstring): every removed
    edge is a bridge (its block simply disappears), or the index carries
    a certificate that :func:`refit_certificate` can keep clear of the
    removed edges.  Either way all other labels are untouched.
    ``removed_ids`` are edge indices in ``index.graph``.
    """
    g = index.graph
    if new_graph.n != g.n or removed_ids.size == 0:
        return None
    keep = np.ones(g.m, dtype=bool)
    keep[removed_ids] = False
    if new_graph.m != int(keep.sum()):
        return None
    labels = index.result.edge_labels[keep]
    if index._is_bridge[removed_ids].all():
        # only whole single-edge blocks disappeared, but later block ids
        # move down and a bridge endpoint can drop to one block, so the
        # index is rebuilt from the labels.  Bridges lie in every
        # spanning tree, so T changed: the certificate goes.
        result = BCCResult(new_graph, labels, algorithm=index.result.algorithm)
        return BCCIndex(result, fingerprint=fingerprint, source="shrink")
    cert = index.certificate
    if cert is None or index._is_bridge[removed_ids].any():
        return None
    cert = refit_certificate(cert, g, removed_ids)
    if cert is None:
        return None
    # every vertex keeps its blocks and every block keeps its size class
    # (a non-bridge block has at least three edges), so the articulation
    # mask and the incidence arrays carry over
    return BCCIndex._patch(index, new_graph, labels,
                           edge_keys=index._edge_keys[keep],
                           bridge_mask=index._is_bridge[keep], source="shrink",
                           fingerprint=fingerprint, certificate=cert)
