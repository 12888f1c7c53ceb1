import numpy as np
import pytest

from priorprop._kernels import gs_sweep
from priorprop.graph import Graph

from oracles import loop_gs_sweep, random_connected_graph

N = 50


def _order(kind, rng):
    if kind == "ascending":
        return np.arange(N, dtype=np.int64)
    if kind == "permuted":
        return rng.permutation(N).astype(np.int64)
    return rng.permutation(N)[: N - 12].astype(np.int64)


@pytest.mark.parametrize("kind", ["ascending", "permuted", "partial"])
def test_sweep_matches_node_by_node_reference(kind):
    rng = np.random.default_rng(3)
    g = Graph.from_edges(N, random_connected_graph(rng, N, extra_edges=3 * N))
    order = _order(kind, rng)
    mu = rng.uniform(0, 1, N)
    h = rng.uniform(0, 1, N)
    base = (mu * h)[order]
    denom = (g.degrees + mu)[order]

    start = rng.uniform(0, 1, N)
    f = start.copy()
    ref = start.copy()
    gs_sweep(f, g.indptr, g.indices, g.weights, order, base, denom)
    loop_gs_sweep(ref, g.indptr, g.indices, g.weights, order, base, denom)

    np.testing.assert_allclose(f, ref, rtol=1e-13, atol=0.0)
    untouched = np.setdiff1d(np.arange(N), order)
    assert np.array_equal(f[untouched], start[untouched])
    assert untouched.size == (12 if kind == "partial" else 0)
