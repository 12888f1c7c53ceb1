import math

import numpy as np
import pytest

import priorprop.spectral as spectral_mod
from priorprop.graph import Graph, LabelSet
from priorprop.solver import solve_soft
from priorprop.spectral import laplacian, second_smallest_eigenvalue, spectral_bound

from oracles import random_connected_graph


def complete_graph(n):
    return Graph.from_edges(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])


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

    def test_full_version_parameters(self):
        eta, delta = 0.3, 0.05
        t, m_b, k_b = 2, 1.5, 2.0
        rep = spectral_bound(
            self.g, self.y.astype(float), self.labels, self.y,
            eta=eta, delta_conf=delta, full_params=(t, m_b, k_b),
        )
        lam1 = rep.lambda1
        gap = lam1 - eta * t
        beta = 3 * eta**2 * math.sqrt(t * 4) / gap**2 + 4 * eta * m_b / gap
        bound = beta + math.sqrt(2 * math.log(2 / delta) / 4) * (4 * beta + (k_b + m_b) ** 2)
        assert rep.beta == pytest.approx(beta, rel=1e-12)
        assert rep.bound == pytest.approx(bound, rel=1e-12)

    def test_simplified_equals_full_with_unit_parameters(self):
        rep_a = spectral_bound(self.g, self.y.astype(float), self.labels, self.y, eta=1.0)
        rep_b = spectral_bound(
            self.g, self.y.astype(float), self.labels, self.y, eta=1.0,
            full_params=(1, 1.0, 1.0),
        )
        assert rep_a.bound == rep_b.bound

    def test_requires_four_labeled(self):
        labels = LabelSet([0, 1], [1, 0])
        with pytest.raises(ValueError, match="4"):
            spectral_bound(self.g, self.y.astype(float), labels, self.y, eta=1.0)

    @pytest.mark.parametrize("truth", [[1, 0, np.nan, 0], [1, 0, 2, 0]])
    def test_rejects_truth_that_is_not_0_or_1(self, truth):
        with pytest.raises(ValueError, match="0 or 1"):
            spectral_bound(self.g, self.y.astype(float), self.labels, truth, eta=1.0)

    @pytest.mark.parametrize("t", [1.5, np.inf, np.nan])
    def test_rejects_a_t_that_is_not_an_integer(self, t):
        # int() used to truncate 1.5 to 1 and raise OverflowError on inf
        with pytest.raises(ValueError, match="t an integer"):
            spectral_bound(self.g, self.y.astype(float), self.labels, self.y, eta=1.0,
                           full_params=(t, 1.0, 1.0))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            spectral_bound(self.g, self.y.astype(float), self.labels, self.y, eta=0.0)
        with pytest.raises(ValueError):
            spectral_bound(self.g, self.y.astype(float), self.labels, self.y,
                           eta=1.0, delta_conf=1.0)
