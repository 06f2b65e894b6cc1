"""The patch oracle: a maintained index must equal a fresh build array by array."""

import numpy as np

from repro.graph import Graph
from repro.service.index import BCCIndex

#: every array a query reads, beyond the labels and the two masks
INDEX_ARRAYS = ("_edge_keys", "_vb_keys", "_vb_blocks", "_vb_indptr")


def assert_same_index(idx: BCCIndex, fresh: BCCIndex) -> None:
    """``idx`` (patched) and ``fresh`` (built) hold identical arrays, and
    ``idx``'s graph is what normalizing its edge list gives."""
    g = idx.graph
    canon = Graph(g.n, g.u, g.v)
    np.testing.assert_array_equal(g.u, canon.u)
    np.testing.assert_array_equal(g.v, canon.v)
    np.testing.assert_array_equal(idx.result.edge_labels, fresh.result.edge_labels)
    np.testing.assert_array_equal(idx._is_art, fresh._is_art)
    np.testing.assert_array_equal(idx._is_bridge, fresh._is_bridge)
    for name in INDEX_ARRAYS:
        np.testing.assert_array_equal(getattr(idx, name), getattr(fresh, name),
                                      err_msg=name)
    assert idx._vb_key_mult == fresh._vb_key_mult
    assert idx.num_components() == fresh.num_components()
