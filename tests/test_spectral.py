import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import reverse_cuthill_mckee

import priorprop.solver as solver_mod
import priorprop.spectral as spectral_mod
from priorprop.graph import Graph, LabelSet
from priorprop.solver import factor_spd, solve_soft
from priorprop.spectral import laplacian, second_smallest_eigenvalue, spectral_bound

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
    shift-invert route makes through ``solver.spd_solver``."""
    made = []

    def recording(a, *args):
        lu = factor_spd(a, *args)
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
        monkeypatch.setattr(spectral_mod, "DENSE_EIG_LIMIT", 10)
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
        monkeypatch.setattr(spectral_mod, "DENSE_EIG_LIMIT", 10)
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

    def test_soft_solve_and_lambda_share_one_minimum_degree_order(self, monkeypatch):
        g = rgg(2000, 2)
        labels = LabelSet(np.arange(0, 2000, 50), np.arange(40) % 2)
        alone = second_smallest_eigenvalue(rgg(2000, 2))
        orderings = []

        def recording(a, permc_spec="MMD_AT_PLUS_A"):
            orderings.append(permc_spec)
            return factor_spd(a, permc_spec)

        monkeypatch.setattr(solver_mod, "factor_spd", recording)
        assert solve_soft(g, labels, 0.01).route == "factor"
        lam = second_smallest_eigenvalue(g)
        assert orderings == ["MMD_AT_PLUS_A", "NATURAL"]
        assert lam == pytest.approx(alone, rel=1e-12)

    def test_laplacian_rows_sum_to_zero(self):
        g = path_graph(5)
        lap = laplacian(g).toarray()
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.allclose(lap, lap.T)


class TestSpectralBound:
    def setup_method(self):
        self.g = complete_graph(4)
        self.labels = LabelSet([0, 1, 2, 3], [1, 0, 1, 0])
        self.y = np.array([1, 0, 1, 0], dtype=np.int8)

    def test_exact_prediction_zero_errors(self):
        rep = spectral_bound(self.g, self.y.astype(float), self.labels, self.y, eta=1.0)
        assert rep.empirical_error == 0.0
        assert rep.generalization_error == 0.0
        assert abs(rep.empirical_error - rep.generalization_error) <= rep.bound

    def test_eta_to_zero_limit(self):
        delta = 0.1
        rep = spectral_bound(self.g, self.y.astype(float), self.labels, self.y,
                             eta=1e-9, delta_conf=delta)
        residual_term = math.sqrt(2 * math.log(2 / delta) / 4) * 4
        assert rep.beta == pytest.approx(0.0, abs=1e-8)
        assert rep.bound == pytest.approx(residual_term, rel=1e-6)

    def test_formula_oracle_fixed_instance(self):
        eta, delta = 1.0, 0.1
        soft = solve_soft(self.g, self.labels, eta)
        rep = spectral_bound(self.g, soft, self.labels, self.y, eta=eta, delta_conf=delta)
        lam1 = rep.lambda1
        beta = 3 * eta**2 * math.sqrt(4) / (lam1 - eta) ** 2 + 4 * eta / (lam1 - eta)
        bound = beta + math.sqrt(2 * math.log(2 / delta) / 4) * (4 * beta + 4)
        assert rep.beta == pytest.approx(beta, abs=1e-12)
        assert rep.bound == pytest.approx(bound, abs=1e-12)

    def test_closed_gap_reports_infinite(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        labels = LabelSet([0, 1, 2, 3], [1, 0, 1, 0])
        rep = spectral_bound(g, self.y.astype(float), labels, self.y, eta=0.5)
        assert rep.lambda1 == 0.0
        assert not rep.finite
        assert math.isinf(rep.bound)
        assert rep.to_dict()["bound"] is None

    def test_beta_and_bound_follow_the_inputs(self):
        # derived when read, so a report cannot carry a bound its inputs contradict
        f = self.y.astype(float)
        rep = spectral_bound(self.g, f, self.labels, self.y, eta=0.3)
        other = spectral_bound(self.g, f, self.labels, self.y, eta=1.5, delta_conf=0.05)
        moved = dataclasses.replace(rep, eta=1.5, delta_conf=0.05)
        assert (moved.beta, moved.bound) != (rep.beta, rep.bound)
        assert (moved.beta, moved.bound) == (other.beta, other.bound)
        assert moved.to_dict() == other.to_dict()

    def test_hypothesis_constants_are_one(self):
        rep = spectral_bound(self.g, self.y.astype(float), self.labels, self.y, eta=1.0)
        assert len(dataclasses.fields(rep)) == 6
        assert [rep.to_dict()[key] for key in ("t", "m_bound", "k_bound")] == [1, 1.0, 1.0]

    def test_subnormal_delta_gives_a_finite_bound(self):
        # 2 / delta overflows at delta = 1e-320; log 2 - log delta does not
        rep = spectral_bound(self.g, self.y.astype(float), self.labels, self.y,
                             eta=1.0, delta_conf=1e-320)
        deviation = math.sqrt(2 * (math.log(2) - math.log(1e-320)) / 4)
        assert rep.finite
        assert rep.bound == pytest.approx(rep.beta + deviation * (4 * rep.beta + 4), rel=1e-12)
        assert rep.to_dict()["bound"] == rep.bound

    @pytest.mark.parametrize("factor", [1e-170, 2.0**-20, 2.0**20])
    def test_scaling_weights_and_eta_together_keeps_beta_and_bound(self, factor):
        # the stability bound is scale-free; at 1e-170 gap**2 underflows to 0
        f = self.y.astype(float)
        rep = spectral_bound(self.g, f, self.labels, self.y, eta=1.0)
        moved = spectral_bound(scaled(self.g, factor), f, self.labels, self.y, eta=factor)
        assert moved.finite
        assert moved.beta == pytest.approx(rep.beta, rel=1e-12)
        assert moved.bound == pytest.approx(rep.bound, rel=1e-12)

    def test_requires_four_labeled(self):
        labels = LabelSet([0, 1], [1, 0])
        with pytest.raises(ValueError, match="4"):
            spectral_bound(self.g, self.y.astype(float), labels, self.y, eta=1.0)

    @pytest.mark.parametrize("truth", [[1, 0, np.nan, 0], [1, 0, 2, 0]])
    def test_rejects_truth_that_is_not_0_or_1(self, truth):
        with pytest.raises(ValueError, match="0 or 1"):
            spectral_bound(self.g, self.y.astype(float), self.labels, truth, eta=1.0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        f = self.y.astype(float)
        f[2] = bad
        with pytest.raises(ValueError, match=f"node 2 has non-finite prediction {bad!r}"):
            spectral_bound(self.g, f, self.labels, self.y, eta=1.0)

    def test_rejects_a_prediction_of_another_size(self):
        with pytest.raises(ValueError, match="prediction must cover every node"):
            spectral_bound(self.g, self.y[:3].astype(float), self.labels, self.y, eta=1.0)

    def test_rejects_a_score_outside_0_1(self):
        # K = 1 needs every score in [0, 1]; the solvers clip theirs
        f = self.y.astype(float)
        f[1] = 1.5
        with pytest.raises(ValueError, match=r"node 1 has prediction 1.5 outside \[0, 1\]"):
            spectral_bound(self.g, f, self.labels, self.y, eta=1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            spectral_bound(self.g, self.y.astype(float), self.labels, self.y, eta=0.0)
        with pytest.raises(ValueError):
            spectral_bound(self.g, self.y.astype(float), self.labels, self.y,
                           eta=1.0, delta_conf=1.0)
