import numpy as np
import pytest

import priorprop.solver as solver_mod
from priorprop._kernels import gs_split, gs_sweep
from priorprop.graph import Graph, LabelSet
from priorprop.solver import PriorField, SolverConfig, fixed_point_residual, solve_with_prior

from oracles import loop_gs_sweep, random_connected_graph

N = 50


def _order(kind, rng):
    if kind == "ascending":
        return np.arange(N, dtype=np.int64)
    if kind == "permuted":
        return rng.permutation(N).astype(np.int64)
    return rng.permutation(N)[: N - 12].astype(np.int64)


def _problem(kind, seed=3):
    rng = np.random.default_rng(seed)
    g = Graph.from_edges(N, random_connected_graph(rng, N, extra_edges=3 * N))
    order = _order(kind, rng)
    prior = PriorField(rng.uniform(0, 1, N), rng.uniform(0, 1, N))
    base = (prior.mu * prior.h)[order]
    denom = (g.degrees + prior.mu)[order]
    return g, order, prior, base, denom, rng.uniform(0, 1, N)


@pytest.mark.parametrize("kind", ["ascending", "permuted", "partial"])
def test_sweep_matches_node_by_node_reference(kind):
    g, order, prior, base, denom, start = _problem(kind)
    split = gs_split(g.indptr, g.indices, g.weights, order, denom)
    f = start.copy()
    ref = start.copy()
    for _ in range(5):
        gs_sweep(f, g.indptr, split, base, order)
        loop_gs_sweep(ref, g.indptr, g.indices, g.weights, order, base, denom)
        np.testing.assert_allclose(f, ref, rtol=1e-13, atol=0.0)
    untouched = np.setdiff1d(np.arange(N), order)
    assert np.array_equal(f[untouched], start[untouched])
    assert untouched.size == (12 if kind == "partial" else 0)


@pytest.mark.parametrize("kind", ["ascending", "permuted", "partial"])
def test_sweep_returns_the_fixed_point_residual(kind):
    g, order, prior, base, denom, f = _problem(kind)
    split = gs_split(g.indptr, g.indices, g.weights, order, denom)
    for _ in range(20):
        resid = gs_sweep(f, g.indptr, split, base, order)
        assert abs(resid - fixed_point_residual(g, f, prior, order)) <= 1e-14


def test_degree_zero_node_with_prior_weight_in_order():
    # node 5 has no edges; its update is f = h with denom = mu
    g = Graph.from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 4, 1.5)])
    prior = PriorField([0.1, 0.2, 0.3, 0.4, 0.5, 0.9], [0.0, 0.5, 0.0, 1.0, 0.0, 2.0])
    order = np.array([4, 5, 1, 2, 3], dtype=np.int64)
    base = (prior.mu * prior.h)[order]
    denom = (g.degrees + prior.mu)[order]
    split = gs_split(g.indptr, g.indices, g.weights, order, denom)
    f = np.linspace(0.0, 1.0, 6)
    ref = f.copy()
    for _ in range(3):
        resid = gs_sweep(f, g.indptr, split, base, order)
        loop_gs_sweep(ref, g.indptr, g.indices, g.weights, order, base, denom)
        np.testing.assert_allclose(f, ref, rtol=1e-13, atol=0.0)
        assert abs(resid - fixed_point_residual(g, f, prior, order)) <= 1e-14
    assert f[5] == 0.9


@pytest.mark.parametrize("kind", ["ascending", "permuted", "partial"])
def test_split_factor_has_no_fill_and_no_pivoting(kind):
    rng = np.random.default_rng(8)
    n = 400
    g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=4 * n))
    order = {"ascending": np.arange(n), "permuted": rng.permutation(n),
             "partial": rng.permutation(n)[: n - 40]}[kind].astype(np.int64)
    split = gs_split(g.indptr, g.indices, g.weights, order, g.degrees[order] + 0.1)
    m = order.size
    pos = np.full(n, m)
    pos[order] = np.arange(m)
    row = np.repeat(pos, np.diff(g.indptr))
    earlier = int(np.sum((pos[g.indices] < row) & (row < m)))
    assert split.lu.U.nnz == m  # diagonal U
    assert split.lu.L.nnz == m + earlier  # unit diagonal plus the strict lower part of L
    assert np.array_equal(split.lu.perm_r, np.arange(m))
    assert np.array_equal(split.lu.perm_c, np.arange(m))
    assert split.rest.nnz + earlier == int(np.sum(np.diff(g.indptr)[order]))


def test_split_for_another_order_is_rejected():
    g, order, prior, base, denom, f = _problem("partial")
    split = gs_split(g.indptr, g.indices, g.weights, order, denom)
    with pytest.raises(ValueError, match="another graph or order"):
        gs_sweep(f, g.indptr, split, np.zeros(N), np.arange(N, dtype=np.int64))


def test_iterative_solve_builds_the_split_once(monkeypatch):
    rng = np.random.default_rng(4)
    g = Graph.from_edges(200, random_connected_graph(rng, 200, extra_edges=400))
    calls = {"split": 0, "sweep": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver_mod, "gs_split", counted("split", solver_mod.gs_split))
    monkeypatch.setattr(solver_mod, "gs_sweep", counted("sweep", solver_mod.gs_sweep))
    prior = PriorField(rng.uniform(0, 1, 200), rng.uniform(0, 0.5, 200))
    pred = solve_with_prior(g, LabelSet([0, 150], [1, 0]), prior,
                            SolverConfig(method="iterative", tolerance=1e-10))
    assert pred.converged and pred.iterations > 1
    assert calls == {"split": 1, "sweep": pred.iterations}
