import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import priorprop.solver as solver_mod
from priorprop.graph import Graph, LabelSet
from priorprop.solver import (
    DENSE_LIMIT,
    FLAG_NONCONVERGED,
    FLAG_OK,
    FLAG_UNREACHABLE,
    PriorField,
    SingularSystemError,
    SolverConfig,
    fixed_point_residual,
    objective_value,
    solve_soft,
    solve_standard,
    solve_with_prior,
)

from oracles import (
    minimize_quadratic,
    naive_prior_objective,
    naive_soft_objective,
    random_connected_graph,
    random_labels,
    soft_solve_reference,
)


def random_instance(seed, n_max=8):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_max + 1))
    edges = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 5)))
    g = Graph.from_edges(n, edges)
    idx, vals = random_labels(rng, n)
    labels = LabelSet(idx, vals)
    prior = PriorField(rng.uniform(0, 1, n), rng.uniform(0, 2, n) * rng.integers(0, 2, n))
    return g, edges, labels, prior


def oracle_prior_solution(g, edges, labels, prior):
    free = np.array([i for i in range(g.node_count) if i not in set(labels.indices.tolist())])
    fixed = dict(zip(labels.indices.tolist(), labels.values.tolist()))

    def obj(u):
        f = np.empty(g.node_count)
        for i, y in fixed.items():
            f[i] = y
        f[free] = u
        return naive_prior_objective(edges, prior.h, prior.mu, f)

    u_star = minimize_quadratic(obj, free.size)
    f = np.empty(g.node_count)
    for i, y in fixed.items():
        f[i] = y
    f[free] = u_star
    return f


class TestSolveWithPrior:
    def test_single_edge_prior(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        prior = PriorField([0.0, 0.0], [0.0, 1.0])
        pred = solve_with_prior(g, LabelSet([0], [1]), prior)
        assert pred.f[1] == pytest.approx(0.5, abs=1e-12)
        assert pred.f[0] == 1.0

    def test_large_mu_pins_to_prior(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        prior = PriorField([0.5] * 4, [0.0, 1e8, 1e8, 1e8])
        pred = solve_with_prior(g, LabelSet([0], [1]), prior)
        assert np.all(np.abs(pred.f[1:] - 0.5) < 1e-6)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_quadratic_oracle(self, seed):
        g, edges, labels, prior = random_instance(seed)
        pred = solve_with_prior(g, labels, prior)
        f_star = oracle_prior_solution(g, edges, labels, prior)
        assert np.max(np.abs(pred.f - f_star)) < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_fixed_point_residual_certificate(self, seed):
        g, edges, labels, prior = random_instance(seed)
        for method in ("direct", "iterative"):
            pred = solve_with_prior(g, labels, prior, SolverConfig(method=method))
            assert pred.residual < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_direct_iterative_agree(self, seed):
        g, edges, labels, prior = random_instance(seed)
        cfg = SolverConfig(method="iterative", tolerance=1e-10)
        f_dir = solve_with_prior(g, labels, prior, SolverConfig(method="direct")).f
        f_it = solve_with_prior(g, labels, prior, cfg).f
        assert np.max(np.abs(f_dir - f_it)) < 10 * cfg.tolerance

    @pytest.mark.parametrize("seed", range(8))
    def test_maximum_principle(self, seed):
        g, edges, labels, prior = random_instance(seed)
        pred = solve_with_prior(g, labels, prior)
        lo = min(labels.values.min(), prior.h[prior.mu > 0].min() if (prior.mu > 0).any() else 1)
        hi = max(labels.values.max(), prior.h[prior.mu > 0].max() if (prior.mu > 0).any() else 0)
        assert np.all(pred.f >= min(lo, hi) - 1e-12)
        assert np.all(pred.f <= max(lo, hi) + 1e-12)

    def test_monotone_mu_limit(self):
        rng = np.random.default_rng(7)
        n = 10
        g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=6))
        labels = LabelSet([0, 1], [1, 0])
        h = rng.uniform(0, 1, n)
        unlabeled = np.arange(2, n)
        prev = None
        for mu in (1.0, 10.0, 100.0, 1000.0):
            pred = solve_with_prior(g, labels, PriorField(h, np.full(n, mu)))
            gap = np.max(np.abs(pred.f[unlabeled] - h[unlabeled]))
            if prev is not None:
                assert gap <= prev + 1e-12
            prev = gap

    def test_zero_mu_equals_standard_exactly(self):
        g, edges, labels, _ = random_instance(123)
        rng = np.random.default_rng(5)
        prior = PriorField(rng.uniform(0, 1, g.node_count), np.zeros(g.node_count))
        a = solve_with_prior(g, labels, prior)
        b = solve_standard(g, labels)
        assert np.array_equal(a.f, b.f)

    def test_optimality_probe(self):
        g, edges, labels, prior = random_instance(42)
        pred = solve_with_prior(g, labels, prior)
        base = objective_value(g, labels, prior, pred.f)
        rng = np.random.default_rng(0)
        labeled = set(labels.indices.tolist())
        free = [i for i in range(g.node_count) if i not in labeled]
        for _ in range(1000):
            f = pred.f.copy()
            f[free] += rng.uniform(-1e-2, 1e-2, len(free))
            assert objective_value(g, labels, prior, f) >= base - 1e-12

    def test_isolated_node_fill_and_flag(self):
        g = Graph.from_edges(3, [(0, 1, 1.0)])
        pred = solve_standard(g, LabelSet([0], [1]))
        assert pred.f[2] == 0.5
        assert pred.node_flags[2] == FLAG_UNREACHABLE
        assert pred.node_flags[1] == FLAG_OK

    def test_isolated_node_raises_when_fill_unset(self):
        g = Graph.from_edges(3, [(0, 1, 1.0)])
        cfg = SolverConfig(unreachable_fill=None)
        with pytest.raises(SingularSystemError, match="2"):
            solve_standard(g, LabelSet([0], [1]), cfg)

    def test_isolated_node_with_mu_is_determined(self):
        g = Graph.from_edges(3, [(0, 1, 1.0)])
        prior = PriorField([0.5, 0.5, 0.9], [0.0, 0.0, 2.0])
        pred = solve_with_prior(g, LabelSet([0], [1]), prior, SolverConfig(unreachable_fill=None))
        assert pred.f[2] == pytest.approx(0.9)
        assert pred.node_flags[2] == FLAG_OK

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(3)
        n = 40
        g = Graph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        cfg = SolverConfig(method="iterative", max_iterations=2, tolerance=1e-14)
        pred = solve_standard(g, LabelSet([0], [1]), cfg)
        assert not pred.converged
        assert np.all(pred.node_flags[1:] == FLAG_NONCONVERGED)
        assert pred.iterations == 2

    def test_failed_cg_falls_back_to_sparse_lu(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = DENSE_LIMIT + 100
        g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=2 * n))
        labels = LabelSet([0, 1, 2], [0, 1, 1])
        prior = PriorField(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        monkeypatch.setattr(solver_mod, "DENSE_LIMIT", n + 1)
        dense = solve_with_prior(g, labels, prior, SolverConfig(method="direct"))
        monkeypatch.setattr(solver_mod, "DENSE_LIMIT", DENSE_LIMIT)
        cg_calls = []

        def failing_cg(a, b, **kwargs):
            cg_calls.append(b.size)
            return np.zeros_like(b), 1

        monkeypatch.setattr(solver_mod.spla, "cg", failing_cg)
        pred = solve_with_prior(g, labels, prior, SolverConfig(method="direct"))
        assert cg_calls == [n - len(labels)]
        np.testing.assert_allclose(pred.f, dense.f, rtol=0.0, atol=1e-10)

    def test_size_mismatch_rejected(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            solve_with_prior(g, LabelSet([0], [1]), PriorField.constant(3))
        with pytest.raises(ValueError):
            solve_standard(g, LabelSet([], []))


class TestSolveStandard:
    def test_path_midpoint(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        pred = solve_standard(g, LabelSet([0, 2], [0, 1]))
        assert pred.f[1] == pytest.approx(0.5, abs=1e-12)

    def test_star_degree_weighted_average(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        pred = solve_standard(g, LabelSet([1, 2, 3], [1, 1, 0]))
        assert pred.f[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_disconnected_unlabeled_gets_half(self):
        g = Graph.from_edges(2, [])
        pred = solve_standard(g, LabelSet([0], [1]))
        assert pred.f[1] == 0.5


class TestSolveSoft:
    def test_isolated_labeled_node(self):
        g = Graph.from_edges(1, [])
        pred = solve_soft(g, LabelSet([0], [1]), eta=5.0)
        assert pred.f[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_edge_exact(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        pred = solve_soft(g, LabelSet([0], [1]), eta=2.0)
        assert np.allclose(pred.f, [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_quadratic_oracle(self, seed):
        rng = np.random.default_rng(seed + 1000)
        n = int(rng.integers(3, 9))
        edges = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 5)))
        g = Graph.from_edges(n, edges)
        idx, vals = random_labels(rng, n)
        labels = LabelSet(idx, vals)
        eta = float(rng.uniform(0.1, 5.0))
        pred = solve_soft(g, labels, eta)
        pairs = list(zip(labels.indices.tolist(), labels.values.tolist()))
        f_star = minimize_quadratic(
            lambda f: naive_soft_objective(edges, pairs, eta, f), n
        )
        assert np.max(np.abs(pred.f - np.clip(f_star, 0, 1))) < 1e-5

    def test_label_free_component_half_and_flagged(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        pred = solve_soft(g, LabelSet([0], [1]), eta=1.0)
        assert pred.f[2] == 0.5 and pred.f[3] == 0.5
        assert pred.node_flags[2] == FLAG_UNREACHABLE

    def test_requires_positive_eta(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            solve_soft(g, LabelSet([0], [1]), eta=0.0)


def disjoint_components(rng, sizes, labeled):
    """One random connected component per size, side by side; ``labeled[c]``
    nodes of component ``c`` get random labels."""
    edges, idx, vals = [], [], []
    offset = 0
    for size, count in zip(sizes, labeled):
        if size > 1:
            edges += [(i + offset, j + offset, w)
                      for i, j, w in random_connected_graph(rng, size, extra_edges=size)]
        idx += (offset + rng.choice(size, size=count, replace=False)).tolist()
        vals += rng.integers(0, 2, size=count).tolist()
        offset += size
    return Graph.from_edges(offset, edges), LabelSet(idx, vals)


class TestSolveSoftMatchesReference:
    """The soft solve as a prior problem against the component-wise penalized solve."""

    @pytest.mark.parametrize("case", ["two-node", "mixed", "isolated"])
    def test_agrees_with_component_solve(self, case):
        rng = np.random.default_rng(7)
        if case == "two-node":
            sizes, labeled = [2] * 1000, rng.integers(1, 3, size=1000)
        elif case == "mixed":
            sizes = [DENSE_LIMIT + 150, 3, 7, 20, 2, 5, 9, 1, 1]
            labeled = [12, 1, 2, 3, 1, 0, 0, 0, 1]
        else:
            sizes, labeled = [1, 4, 1], [1, 1, 0]
        g, labels = disjoint_components(rng, sizes, labeled)
        pred = solve_soft(g, labels, 0.7)
        f_ref, flags_ref = soft_solve_reference(g, labels, 0.7)
        assert np.max(np.abs(pred.f - f_ref)) < 1e-12
        np.testing.assert_array_equal(pred.node_flags, flags_ref)
        assert pred.converged and pred.method == "direct"


class TestObjectiveValue:
    def test_constant_is_zero(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        labels = LabelSet([0], [1])
        prior = PriorField([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
        assert objective_value(g, labels, prior, np.ones(3)) == 0.0

    def test_single_edge_counts_once(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        labels = LabelSet([0, 1], [0, 1])
        prior = PriorField.constant(2)
        assert objective_value(g, labels, prior, np.array([0.0, 1.0])) == 1.0

    def test_matches_naive_oracle(self):
        g, edges, labels, prior = random_instance(9)
        rng = np.random.default_rng(1)
        f = rng.uniform(0, 1, g.node_count)
        f[labels.indices] = labels.values
        assert objective_value(g, labels, prior, f) == pytest.approx(
            naive_prior_objective(edges, prior.h, prior.mu, f), rel=1e-12
        )

    def test_rejects_constraint_violation(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        labels = LabelSet([0], [1])
        with pytest.raises(ValueError, match="constraint"):
            objective_value(g, labels, PriorField.constant(2), np.array([0.5, 0.5]))


class TestPriorField:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriorField([1.5], [0.0])
        with pytest.raises(ValueError):
            PriorField([0.5], [-1.0])
        with pytest.raises(ValueError):
            PriorField([0.5, 0.5], [1.0])

    def test_constant_constructor(self):
        p = PriorField.constant(3, h=0.25, mu=2.0)
        assert np.all(p.h == 0.25) and np.all(p.mu == 2.0)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="magic")
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(unreachable_fill=1.5)

    @pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), -1e-8])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SolverConfig(method="iterative", tolerance=tolerance)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_property_solution_in_unit_interval(seed):
    g, edges, labels, prior = random_instance(seed % 100000)
    pred = solve_with_prior(g, labels, prior)
    assert np.all(pred.f >= 0.0) and np.all(pred.f <= 1.0)
    assert fixed_point_residual(
        g, pred.f, prior, np.setdiff1d(np.arange(g.node_count), labels.indices)
    ) < 1e-6
