import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import priorprop.solver as solver_mod
from priorprop.graph import Graph, LabelSet
from priorprop.multisource import WeakVoteMatrix, vote_prior
from priorprop.solver import (
    DENSE_LIMIT,
    FLAG_NONCONVERGED,
    FLAG_OK,
    FLAG_UNREACHABLE,
    Prediction,
    PriorField,
    SingularSystemError,
    SolverConfig,
    factor_spd,
    fixed_point_residual,
    objective_value,
    solve_soft,
    solve_standard,
    solve_with_prior,
)

from oracles import (
    geometric_graph,
    minimize_quadratic,
    naive_prior_objective,
    naive_soft_objective,
    random_connected_graph,
    random_labels,
    soft_solve_reference,
)


def heavy_path(n):
    """A path whose first two edges weigh 1e18 and swamp the unit ones,
    labeled 1 at node 0 and 0 at node n - 1."""
    edges = [(0, 1, 1e18), (1, 2, 1e18)] + [(i, i + 1, 1.0) for i in range(2, n - 1)]
    return Graph.from_edges(n, edges), LabelSet([0, n - 1], [1, 0])


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

    def test_isolated_node_with_mu_is_determined(self):
        g = Graph.from_edges(3, [(0, 1, 1.0)])
        prior = PriorField([0.5, 0.5, 0.9], [0.0, 0.0, 2.0])
        pred = solve_with_prior(g, LabelSet([0], [1]), prior)
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

        def failing_cg(a, b, precondition, rtol, maxiter):
            cg_calls.append(b.size)
            return np.zeros_like(b), maxiter, maxiter

        monkeypatch.setattr(solver_mod, "_pcg", failing_cg)
        pred = solve_with_prior(g, labels, prior, SolverConfig(method="direct"))
        assert cg_calls == [n - len(labels)]
        assert (dense.route, pred.route) == ("dense", "pcg+factor")
        assert (dense.iterations, pred.iterations) == (0, 20 * (n - len(labels)))
        np.testing.assert_allclose(pred.f, dense.f, rtol=0.0, atol=1e-10)

    def test_inaccurate_cg_answer_is_replaced_by_the_factor(self):
        # CG reports success here with f = 0 from node 3 on, a residual of 0.5
        g, labels = heavy_path(606)
        pred = solve_standard(g, labels)
        solved = np.arange(1, g.node_count - 1)
        a = sp.diags(g.degrees[solved]) - g.matrix[solved][:, solved]
        b = g.matrix[solved][:, labels.indices] @ labels.values.astype(float)
        want = factor_spd(a).solve(b)
        np.testing.assert_allclose(pred.f[solved], want, rtol=0.0, atol=1e-12)
        assert pred.f[3] == pytest.approx(0.99834, abs=1e-5)
        assert pred.residual < 1e-12
        assert pred.route == "pcg+factor"

    @pytest.mark.parametrize("values", [[1, 0], [0, 1]])
    def test_singular_sparse_system_raises(self, values, monkeypatch):
        # node 0's prior weight is lost beside 1e18, so the soft system is
        # singular in floats; the gate factors it (a path, nearly singular),
        # and its factor has a negative pivot
        g, labels = heavy_path(606)
        monkeypatch.setattr(solver_mod, "_pcg", None)
        with pytest.raises(SingularSystemError, match="system of 606 unknowns is numerically"):
            solve_soft(g, LabelSet(labels.indices, values), 0.01)

    def test_size_mismatch_rejected(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            solve_with_prior(g, LabelSet([0], [1]), PriorField.constant(3))
        with pytest.raises(ValueError):
            solve_standard(g, LabelSet([], []))


class TestPcg:
    """The package's CG loop against scipy's ``cg`` with the same
    preconditioner, Jacobi or a sparse factor's solve: the same ``x``, sign
    bits included, the same ``info``, and one step per scipy callback."""

    @staticmethod
    def spd_system(seed):
        # the unlabeled block of a random graph's system with random priors
        rng = np.random.default_rng(seed)
        n = DENSE_LIMIT + 100 * (seed + 1)
        g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=n))
        mu = rng.uniform(0, 1, n) * (rng.random(n) < 0.5)
        y = np.zeros(n)
        labeled = rng.choice(n, 10, replace=False)
        y[labeled] = rng.integers(0, 2, 10)
        solved = np.setdiff1d(np.arange(n), labeled)
        diag = g.degrees[solved] + mu[solved]
        a = (sp.diags(diag) - g.matrix[solved][:, solved]).tocsr()
        b = mu[solved] * rng.uniform(0, 1, n)[solved] + (g.matrix @ y)[solved]
        return a, b, 1.0 / diag

    @staticmethod
    def assert_matches_scipy(a, b, precondition, m, maxiter):
        calls = []
        want, want_info = spla.cg(a, b, rtol=1e-13, atol=0.0, maxiter=maxiter,
                                  M=m, callback=calls.append)
        x, info, steps = solver_mod._pcg(a, b, precondition, 1e-13, maxiter)
        np.testing.assert_array_equal(x, want)
        np.testing.assert_array_equal(np.signbit(x), np.signbit(want))
        assert (info, steps) == (want_info, len(calls))
        return x, info, steps

    @classmethod
    def assert_jacobi_matches_scipy(cls, a, b, inv_diag, maxiter):
        return cls.assert_matches_scipy(a, b, lambda r: inv_diag * r, sp.diags(inv_diag),
                                        maxiter)

    @pytest.mark.parametrize("seed", range(3))
    def test_spd_systems_converge_as_scipy_does(self, seed):
        a, b, inv_diag = self.spd_system(seed)
        _, info, steps = self.assert_jacobi_matches_scipy(a, b, inv_diag, 20 * b.size)
        assert info == 0 and steps > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_a_factor_preconditions_as_scipy_does(self, seed):
        # the factor of a nearby SPD matrix, as lambda_2's shift-invert
        # factor preconditions the soft system
        a, b, inv_diag = self.spd_system(seed)
        solve = factor_spd((a + sp.diags(0.01 / inv_diag)).tocsr()).solve
        m = spla.LinearOperator(a.shape, matvec=solve, dtype=np.float64)
        _, info, steps = self.assert_matches_scipy(a, b, solve, m, 20 * b.size)
        assert info == 0 and 0 < steps < 20

    def test_zero_right_hand_side_is_returned_with_its_signs(self):
        a, b, inv_diag = self.spd_system(0)
        zero = np.zeros(b.size)
        zero[::3] = -0.0
        x, info, steps = self.assert_jacobi_matches_scipy(a, zero, inv_diag, 20 * b.size)
        assert x is zero and (info, steps) == (0, 0)

    def test_a_non_finite_residual_ends_the_run_at_maxiter(self):
        # scipy runs on to maxiter on nans; the loop stops at the first
        # non-finite residual norm with the same info
        a, b, inv_diag = self.spd_system(0)
        huge = 1e300 * b
        with np.errstate(over="ignore", invalid="ignore"):
            _, want_info = spla.cg(a, huge, rtol=1e-13, atol=0.0, maxiter=50,
                                   M=sp.diags(inv_diag))
            _, info, steps = solver_mod._pcg(a, huge, lambda r: inv_diag * r, 1e-13, 50)
        assert (info, steps) == (want_info, 0) == (50, 0)

    def test_a_run_cut_off_reports_maxiter(self):
        a, b, inv_diag = self.spd_system(1)
        _, info, steps = self.assert_jacobi_matches_scipy(a, b, inv_diag, 3)
        assert (info, steps) == (3, 3)


def votes_prior(graph, labels, seed=0):
    """The accuracy-scheme prior of three labelers that vote on 60% of the nodes."""
    rng = np.random.default_rng(seed)
    shape = (graph.node_count, 3)
    votes = np.where(rng.random(shape) < 0.6, rng.integers(0, 2, shape), -1)
    return vote_prior(WeakVoteMatrix(votes), "accuracy", labels)


def scaled_problem(graph, prior, factor):
    edges = np.column_stack([graph.rows, graph.indices, graph.weights * factor])
    return Graph.from_edges(graph.node_count, edges), PriorField(prior.h, prior.mu * factor)


class TestFactorOrPcgGate:
    """Above DENSE_LIMIT unknowns the system is factored when it is nearly
    singular on the graph's scale and the graph's factor is cheap."""

    @pytest.fixture(scope="class")
    def rgg_2d(self):
        g = Graph.from_edges(2000, geometric_graph(2000, 2, 13.0, 1))
        labels = LabelSet(np.arange(0, 2000, 50), np.arange(40) % 2)
        return g, labels

    def soft_prior(self, graph, labels, eta=0.01):
        h = np.full(graph.node_count, 0.5)
        mu = np.zeros(graph.node_count)
        h[labels.indices] = labels.values
        mu[labels.indices] = eta / 2
        return PriorField(h, mu)

    def test_soft_solve_on_a_2d_graph_is_factored(self, rgg_2d):
        g, labels = rgg_2d
        pred = solve_soft(g, labels, 0.01)
        assert pred.route == "factor"
        prior = self.soft_prior(g, labels)
        a = (sp.diags(g.degrees + prior.mu) - g.matrix).tocsc()
        want = spla.spsolve(a, prior.mu * prior.h)
        np.testing.assert_allclose(pred.f, want, rtol=0.0, atol=1e-10)

    def test_soft_solve_on_a_3d_graph_stays_on_pcg(self):
        g = Graph.from_edges(2000, geometric_graph(2000, 3, 13.0, 1))
        labels = LabelSet(np.arange(0, 2000, 50), np.arange(40) % 2)
        assert solve_soft(g, labels, 0.01).route == "pcg"

    @pytest.mark.parametrize("case, route", [
        ("soft", "factor"), ("mu=0", "pcg"), ("mu=1", "pcg"), ("votes", "pcg"),
    ])
    def test_hard_solves_stay_on_pcg_and_scaling_keeps_every_route(self, rgg_2d, case, route):
        # hard labels or a votes prior keep rho_1 far above R / d_max
        g, labels = rgg_2d
        prior, hard = {
            "soft": (self.soft_prior(g, labels), LabelSet([], [])),
            "mu=0": (PriorField.constant(g.node_count, 0.0), labels),
            "mu=1": (PriorField.constant(g.node_count, 1.0), labels),
            "votes": (votes_prior(g, labels), labels),
        }[case]
        big_graph, big_prior = scaled_problem(g, prior, 1e6)
        pred = solve_with_prior(g, hard, prior)
        big = solve_with_prior(big_graph, hard, big_prior)
        assert (pred.route, big.route) == (route, route)
        np.testing.assert_allclose(big.f, pred.f, rtol=0.0, atol=1e-10)

    def test_routes_of_the_small_and_iterative_solves(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        labels = LabelSet([0, 2], [0, 1])
        assert solve_standard(g, labels).route == "dense"
        assert solve_standard(g, labels, SolverConfig(method="iterative")).route == "gauss-seidel"

    @pytest.mark.parametrize("route, method", [
        ("dense", "direct"), ("pcg", "direct"), ("factor", "direct"),
        ("pcg+factor", "direct"), ("gauss-seidel", "iterative"),
    ])
    def test_method_is_derived_from_the_route(self, route, method):
        fields = dict(f=np.zeros(2), node_flags=np.zeros(2, dtype=np.int8), iterations=0,
                      residual=0.0, route=route)
        assert Prediction(**fields).method == method
        with pytest.raises(TypeError):
            Prediction(**fields, method=method)


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

    def test_huge_eta_gives_the_hard_solution(self):
        # the unscaled dense matrix looks singular (rcond ~1e-308); with unit
        # diagonal it is not, and the soft solution tends to the hard one
        g = Graph.from_edges(6, [(i, i + 1, 1.0) for i in range(5)] + [(0, 5, 0.5)])
        labels = LabelSet([0, 3], [1, 0])
        pred = solve_soft(g, labels, 1e308)
        assert pred.route == "dense"
        np.testing.assert_allclose(pred.f, solve_standard(g, labels).f, rtol=0, atol=1e-12)

    def test_huge_eta_on_a_sparse_graph_skips_cg_without_warnings(self):
        # at eta 1e308 the right-hand side's norm overflows, so CG stops before
        # its first step, and the gate's rho_1 and CG's sums overflow
        # silently; the factor solves it
        g = Graph.from_edges(2000, geometric_graph(2000, 2, 13.0, 1))
        labels = LabelSet(np.arange(0, 2000, 50), np.arange(40) % 2)
        pred = solve_soft(g, labels, 1e308)
        assert (pred.route, pred.iterations) == ("pcg+factor", 0)
        np.testing.assert_allclose(pred.f, solve_standard(g, labels).f, rtol=0, atol=1e-10)

    def test_tiny_eta_is_numerically_singular(self):
        # L + 5e-16 on the labeled nodes is ill-conditioned even with unit
        # diagonal: Cholesky succeeds, but gives 0.32 on every node, not 0.5
        g = Graph.from_edges(6, [(i, i + 1, 1.0) for i in range(5)] + [(0, 5, 0.5)])
        with pytest.raises(SingularSystemError, match="system of 6 unknowns is numerically"):
            solve_soft(g, LabelSet([0, 3], [1, 0]), 1e-15)

    def test_label_free_component_half_and_flagged(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        pred = solve_soft(g, LabelSet([0], [1]), eta=1.0)
        assert pred.f[2] == 0.5 and pred.f[3] == 0.5
        assert pred.node_flags[2] == FLAG_UNREACHABLE

    def test_requires_positive_eta(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            solve_soft(g, LabelSet([0], [1]), eta=0.0)

    def test_eta_that_underflows_when_halved_is_named(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="eta 5e-324 underflows to 0"):
            solve_soft(g, LabelSet([0], [1]), eta=5e-324)


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
        p = PriorField(np.full(3, 0.25), np.full(3, 2.0))
        assert np.all(p.h == 0.25) and np.all(p.mu == 2.0)
        neutral = PriorField.constant(3, mu=2.0)
        assert np.all(neutral.h == 0.5) and np.all(neutral.mu == 2.0)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="magic")
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

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
