import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

import priorprop.solver as solver_mod
import priorprop.spectral as spectral_mod
from priorprop.graph import Graph, LabelSet
from priorprop.solver import factor_spd, solve_soft
from priorprop.spectral import (
    SpectralReport,
    laplacian,
    second_smallest_eigenvalue,
    spectral_bound,
)

from oracles import geometric_graph, random_connected_graph


def complete_graph(n):
    return Graph.from_edges(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)])


def grid_graph(rows, cols):
    idx = np.arange(rows * cols).reshape(rows, cols)
    pairs = np.concatenate([
        np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()]),
        np.column_stack([idx[:-1].ravel(), idx[1:].ravel()]),
    ])
    return Graph.from_edges(rows * cols, np.column_stack([pairs, np.ones(len(pairs))]))


def rgg(n, dim, degree=13.0, seed=1):
    return Graph.from_edges(n, geometric_graph(n, dim, degree, seed))


def rcg(n, seed=3):
    edges = random_connected_graph(np.random.default_rng(seed), n, extra_edges=n)
    return Graph.from_edges(n, edges)


def scaled(graph, factor):
    return Graph.from_edges(graph.node_count, [(i, j, w * factor) for i, j, w in graph.edge_list()])


def permuted_bandwidth(graph):
    """Bandwidth of the adjacency matrix permuted into reverse Cuthill-McKee order."""
    order = reverse_cuthill_mckee(graph.matrix, symmetric_mode=True)
    coo = graph.matrix[order][:, order].tocoo()
    return int(np.max(np.abs(coo.row - coo.col)))


@pytest.fixture
def factors(monkeypatch):
    """Record ``(n, L.nnz + U.nnz)`` of every sparse factor, which the
    shift-invert route makes through ``solver.factor_spd``."""
    made = []

    def recording(a):
        lu = factor_spd(a)
        made.append((a.shape[0], lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(solver_mod, "factor_spd", recording)
    return made


class TestSecondSmallestEigenvalue:
    def test_complete_graph(self):
        assert abs(second_smallest_eigenvalue(complete_graph(4)) - 4.0) <= 1e-12

    def test_path_graph(self):
        lam = second_smallest_eigenvalue(path_graph(4))
        assert abs(lam - (2.0 - math.sqrt(2.0))) <= 1e-9

    def test_disconnected_is_exactly_zero(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert second_smallest_eigenvalue(g) == 0.0

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            second_smallest_eigenvalue(Graph.from_edges(1, []))

    def test_lanczos_path_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(0)
        n = 80
        g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=2 * n))
        dense = second_smallest_eigenvalue(g)
        monkeypatch.setattr(solver_mod, "DENSE_LIMIT", 10)
        lanczos = second_smallest_eigenvalue(g)
        assert lanczos == pytest.approx(dense, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("make, closed_form", [
        (path_graph, lambda n: 2.0 * (1.0 - math.cos(math.pi / n))),
        (cycle_graph, lambda n: 2.0 * (1.0 - math.cos(2.0 * math.pi / n))),
    ], ids=["path", "cycle"])
    @pytest.mark.parametrize("n", [3000, 5000])
    def test_closed_forms_on_the_shift_invert_route(self, factors, make, closed_form, n):
        lam = second_smallest_eigenvalue(make(n))
        assert len(factors) == 1
        assert lam == pytest.approx(closed_form(n), rel=1e-9)

    @pytest.mark.parametrize("make, shift_invert", [
        (lambda: rgg(500, 2), True),
        (lambda: grid_graph(20, 25), True),
        (lambda: cycle_graph(400), True),
        (lambda: rcg(500), False),
        (lambda: rgg(500, 3), False),
    ], ids=["rgg-2d", "grid", "cycle", "random-connected", "rgg-3d"])
    def test_sparse_routes_match_dense(self, monkeypatch, factors, make, shift_invert):
        g = make()
        dense = scipy.linalg.eigvalsh(laplacian(g).toarray())[1]
        monkeypatch.setattr(solver_mod, "DENSE_LIMIT", 10)
        lam = second_smallest_eigenvalue(g)
        assert len(factors) == int(shift_invert)
        assert lam == pytest.approx(dense, rel=1e-9)

    @pytest.mark.parametrize("make, shift_invert", [
        (lambda: path_graph(2000), True),
        (lambda: grid_graph(80, 75), True),
        (lambda: rgg(6000, 2), True),
        (lambda: rcg(3000), False),
        (lambda: rgg(6000, 3), False),
    ], ids=["path", "grid", "rgg-2d", "random-connected", "rgg-3d"])
    def test_gate_routes_thin_graphs_to_shift_invert(self, factors, make, shift_invert):
        second_smallest_eigenvalue(make())
        assert len(factors) == int(shift_invert)

    @pytest.mark.parametrize("make, shift_invert", [
        (lambda: rgg(2000, 2), True),
        (lambda: rcg(2000), False),
    ], ids=["rgg-2d", "random-connected"])
    def test_scaling_every_weight_scales_lambda_and_keeps_the_route(
        self, factors, make, shift_invert
    ):
        g = make()
        lam = second_smallest_eigenvalue(g)
        lam_scaled = second_smallest_eigenvalue(scaled(g, 1e6))
        assert len(factors) == 2 * int(shift_invert)
        assert lam_scaled == pytest.approx(1e6 * lam, rel=1e-9)

    @pytest.mark.parametrize("make", [
        lambda: path_graph(5000),
        lambda: grid_graph(80, 75),
        lambda: grid_graph(40, 500),
        lambda: rgg(2000, 2),
        lambda: rgg(6000, 2),
        lambda: rgg(12000, 2, degree=8.0),
        lambda: rgg(20000, 2),
    ], ids=["path-5k", "grid-80x75", "grid-40x500", "rgg-2k", "rgg-6k", "rgg-12k-deg8", "rgg-20k"])
    def test_shift_invert_factor_fits_the_rcm_band(self, factors, make):
        # an RCM factor without pivoting fits in n * (band + 1) entries per
        # triangle; the minimum-degree factor must not be larger
        g = make()
        band = g.rcm_profile[0]
        assert band == permuted_bandwidth(g)
        second_smallest_eigenvalue(g)
        assert factors, "the gate sent this graph to Lanczos"
        (n, nnz), = factors
        assert nnz <= 2 * n * (band + 1)

    def test_laplacian_rows_sum_to_zero(self):
        g = path_graph(5)
        lap = laplacian(g).toarray()
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.allclose(lap, lap.T)

    @pytest.mark.parametrize("graph", [
        path_graph(5),
        Graph.from_edges(7, [(0, 1, 0.5), (1, 2, 2.0), (4, 5, 1.0)]),
        Graph.from_edges(300, geometric_graph(300, 2, 8, 1)),
    ], ids=["path", "isolated-nodes", "geometric"])
    def test_laplacian_is_scipys_degree_minus_adjacency(self, graph):
        want = (sp.diags(graph.degrees) - graph.matrix).tocsr()
        got = laplacian(graph)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestOneFactorForTheSpectralBound:
    """``spectral_bound`` on a 2-D geometric graph whose ``lambda_2`` takes the
    shift-invert route, against ``solve_soft`` and ``second_smallest_eigenvalue``
    called on fresh copies of the graph."""

    labels = LabelSet(np.arange(0, 2000, 50), np.arange(40) % 2)
    truth = (np.arange(2000) // 50) % 2

    @pytest.fixture
    def orderings(self, monkeypatch):
        """The shape of every sparse factor, each made in a minimum-degree
        order of its own."""
        made = []

        def recording(a):
            made.append(a.shape)
            return factor_spd(a)

        monkeypatch.setattr(solver_mod, "factor_spd", recording)
        return made

    @pytest.fixture
    def soft_calls(self, monkeypatch):
        calls = []

        def recording(graph, labels, eta, config=None):
            calls.append(eta)
            return solve_soft(graph, labels, eta, config)

        monkeypatch.setattr(spectral_mod, "solve_soft", recording)
        return calls

    def alone(self, eta, labels=labels):
        """``lambda_2``, the soft solution's two errors and its route, each
        computed on a graph of its own."""
        soft = solve_soft(rgg(2000, 2), labels, eta)
        lam = second_smallest_eigenvalue(rgg(2000, 2))
        empirical = np.mean((soft.f[labels.indices] - labels.values) ** 2)
        return lam, empirical, np.mean((soft.f - self.truth) ** 2), soft.route

    def assert_same_answers(self, rep, eta, labels=labels):
        lam, empirical, generalization, _ = self.alone(eta, labels)
        assert rep.lambda1 == lam
        assert abs(rep.empirical_error - empirical) <= 1e-10
        assert abs(rep.generalization_error - generalization) <= 1e-10

    def test_default_eta_factors_the_graph_once(self, orderings, soft_calls):
        g = rgg(2000, 2)
        assert solver_mod.factor_is_cheap(g) and 0.01 / 2 <= g.rcm_profile[1]
        rep = spectral_bound(g, self.labels, self.truth, eta=0.01)
        assert orderings == [(2000, 2000)]
        assert soft_calls == []
        assert self.alone(0.01)[3] == "factor"
        self.assert_same_answers(rep, 0.01)

    @pytest.mark.parametrize("eta, soft_route, want", [
        (1.0, "factor", []),
        (10.0, "pcg", [10.0]),
        (0.5, "factor", []),
        (5.0, "factor", []),
    ])
    def test_large_eta_solves_and_factors_as_before(
        self, orderings, soft_calls, eta, soft_route, want
    ):
        # eta / 2 > R: lambda_2's factor is the only one. It preconditions the
        # soft solve where the solver's gate would factor the soft system (eta
        # 0.5 to 5, the window's edges on this graph); solve_soft runs by its
        # own route where the gate would not (eta 10)
        g = rgg(2000, 2)
        prior = solver_mod._soft_prior(g, self.labels, eta)
        assert eta / 2 > g.rcm_profile[1]
        factors = solver_mod._factor_pays(g, prior.mu, np.arange(2000), g.degrees + prior.mu)
        assert factors == (soft_route == "factor")
        rep = spectral_bound(g, self.labels, self.truth, eta=eta)
        assert (orderings, soft_calls) == ([(2000, 2000)], want)
        orderings.clear()
        assert self.alone(eta)[3] == soft_route
        self.assert_same_answers(rep, eta)

    def test_many_labels_below_r_share_the_factor_where_the_solver_runs_pcg(
        self, orderings, soft_calls
    ):
        # nine nodes in ten labeled: eta / 2 <= R, but the labels' weight fails
        # the gate's rho_1 test, so solve_soft takes Jacobi-PCG; the shared CG
        # runs all the same
        idx = np.flatnonzero(np.arange(2000) % 10)
        labels = LabelSet(idx, self.truth[idx])
        g = rgg(2000, 2)
        assert 0.2 / 2 <= g.rcm_profile[1]
        rep = spectral_bound(g, labels, self.truth, eta=0.2)
        assert (orderings, soft_calls) == ([(2000, 2000)], [])
        assert self.alone(0.2, labels)[3] == "pcg"
        self.assert_same_answers(rep, 0.2, labels)

    def test_rejected_cg_answer_falls_back_to_solve_soft(
        self, monkeypatch, orderings, soft_calls
    ):
        # the only path that orders the graph twice: lambda_2's factor, then
        # the soft solve's own
        monkeypatch.setattr(spectral_mod, "SHARED_CG_STEPS", 1)
        rep = spectral_bound(rgg(2000, 2), self.labels, self.truth, eta=0.01)
        assert orderings == [(2000, 2000)] * 2
        assert soft_calls == [0.01]
        self.assert_same_answers(rep, 0.01)


class TestNoCallHistory:
    """Results on a graph do not depend on what was computed on it before."""

    labels = TestOneFactorForTheSpectralBound.labels
    truth = TestOneFactorForTheSpectralBound.truth

    def test_lambda_2_after_a_factored_soft_solve(self):
        g = rgg(2000, 2)
        assert solve_soft(g, self.labels, 1.0).route == "factor"
        assert second_smallest_eigenvalue(g) == second_smallest_eigenvalue(rgg(2000, 2))

    # graphs on which an order stored by lambda_2's factor used to change
    # the soft factor's last bits
    @pytest.mark.parametrize("seed, eta", [(1, 0.5), (2, 1.0)])
    def test_spectral_bound_after_lambda_2(self, seed, eta):
        g = rgg(2000, 2, seed=seed)
        second_smallest_eigenvalue(g)
        after = spectral_bound(g, self.labels, self.truth, eta=eta)
        fresh = spectral_bound(rgg(2000, 2, seed=seed), self.labels, self.truth, eta=eta)
        assert after.to_dict() == fresh.to_dict()


class TestSpectralBound:
    def setup_method(self):
        self.g = complete_graph(4)
        self.labels = LabelSet([0, 1, 2, 3], [1, 0, 1, 0])
        self.y = np.array([1, 0, 1, 0], dtype=np.int8)

    @staticmethod
    def report(**fields):
        inputs = dict(lambda1=4.0, eta=1.0, n_labeled=4, delta_conf=0.1,
                      empirical_error=0.0, generalization_error=0.0)
        return SpectralReport(**{**inputs, **fields})

    def test_errors_are_those_of_the_soft_solution(self):
        eta = 0.7
        f = solve_soft(self.g, self.labels, eta).f
        rep = spectral_bound(self.g, self.labels, self.y, eta=eta)
        assert rep.empirical_error == np.mean((f - self.labels.values) ** 2) > 0
        assert rep.generalization_error == np.mean((f - self.y) ** 2)

    def test_exact_prediction_zero_errors(self):
        rep = self.report()
        assert abs(rep.empirical_error - rep.generalization_error) <= rep.bound

    def test_eta_to_zero_limit(self):
        delta = 0.1
        rep = self.report(eta=1e-9, delta_conf=delta)
        residual_term = math.sqrt(2 * math.log(2 / delta) / 4) * 4
        assert rep.beta == pytest.approx(0.0, abs=1e-8)
        assert rep.bound == pytest.approx(residual_term, rel=1e-6)

    def test_formula_oracle_fixed_instance(self):
        eta, delta = 1.0, 0.1
        rep = spectral_bound(self.g, self.labels, self.y, eta=eta, delta_conf=delta)
        lam1 = rep.lambda1
        beta = 3 * eta**2 * math.sqrt(4) / (lam1 - eta) ** 2 + 4 * eta / (lam1 - eta)
        bound = beta + math.sqrt(2 * math.log(2 / delta) / 4) * (4 * beta + 4)
        assert rep.beta == pytest.approx(beta, abs=1e-12)
        assert rep.bound == pytest.approx(bound, abs=1e-12)

    def test_closed_gap_reports_infinite(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        labels = LabelSet([0, 1, 2, 3], [1, 0, 1, 0])
        rep = spectral_bound(g, labels, self.y, eta=0.5)
        assert rep.lambda1 == 0.0
        assert not rep.finite
        assert math.isinf(rep.bound)
        assert rep.to_dict()["bound"] is None

    def test_beta_and_bound_follow_the_inputs(self):
        # derived when read, so a report cannot carry a bound its inputs contradict
        rep = self.report(eta=0.3)
        other = self.report(eta=1.5, delta_conf=0.05)
        moved = dataclasses.replace(rep, eta=1.5, delta_conf=0.05)
        assert (moved.beta, moved.bound) != (rep.beta, rep.bound)
        assert (moved.beta, moved.bound) == (other.beta, other.bound)
        assert moved.to_dict() == other.to_dict()

    def test_hypothesis_constants_are_one(self):
        rep = spectral_bound(self.g, self.labels, self.y, eta=1.0)
        assert len(dataclasses.fields(rep)) == 6
        assert [rep.to_dict()[key] for key in ("t", "m_bound", "k_bound")] == [1, 1.0, 1.0]

    def test_subnormal_delta_gives_a_finite_bound(self):
        # 2 / delta overflows at delta = 1e-320; log 2 - log delta does not
        rep = spectral_bound(self.g, self.labels, self.y, eta=1.0, delta_conf=1e-320)
        deviation = math.sqrt(2 * (math.log(2) - math.log(1e-320)) / 4)
        assert rep.finite
        assert rep.bound == pytest.approx(rep.beta + deviation * (4 * rep.beta + 4), rel=1e-12)
        assert rep.to_dict()["bound"] == rep.bound

    @pytest.mark.parametrize("factor", [1e-170, 2.0**-20, 2.0**20])
    def test_scaling_weights_and_eta_together_keeps_beta_and_bound(self, factor):
        # the stability bound is scale-free; at 1e-170 gap**2 underflows to 0
        rep = spectral_bound(self.g, self.labels, self.y, eta=1.0)
        moved = spectral_bound(scaled(self.g, factor), self.labels, self.y, eta=factor)
        assert moved.finite
        assert moved.beta == pytest.approx(rep.beta, rel=1e-12)
        assert moved.bound == pytest.approx(rep.bound, rel=1e-12)

    def test_requires_four_labeled(self):
        labels = LabelSet([0, 1], [1, 0])
        with pytest.raises(ValueError, match="4"):
            spectral_bound(self.g, labels, self.y, eta=1.0)

    @pytest.mark.parametrize("truth", [[1, 0, np.nan, 0], [1, 0, 2, 0]])
    def test_rejects_truth_that_is_not_0_or_1(self, truth):
        with pytest.raises(ValueError, match="0 or 1"):
            spectral_bound(self.g, self.labels, truth, eta=1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="eta must be positive"):
            spectral_bound(self.g, self.labels, self.y, eta=0.0)
        with pytest.raises(ValueError, match="underflows to 0"):
            spectral_bound(self.g, self.labels, self.y, eta=5e-324)
        with pytest.raises(ValueError, match="delta_conf"):
            spectral_bound(self.g, self.labels, self.y, eta=1.0, delta_conf=1.0)
