import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial import cKDTree

from priorprop import multisource
from priorprop.evaluation import SyntheticSpec, generate_clusters
from priorprop.graph import Graph, LabelSet
from priorprop.multisource import (
    ABSTAIN,
    LabelerAccuracy,
    WeakVoteMatrix,
    alpha_accuracy,
    alpha_boosting,
    alpha_constant,
    alpha_oracle,
    alpha_probabilistic,
    estimate_accuracy_from_labeled,
    reduce_to_single_prior,
    vote_prior,
)
from priorprop.solver import (
    PriorField,
    SolverConfig,
    objective_value,
    solve_standard,
    solve_with_prior,
)

from oracles import (
    anchor_graph,
    anchor_graph_solve,
    block_knn_mean,
    feature_points,
    random_connected_graph,
    random_labels,
)


def random_votes(rng, n, k, abstain_rate=0.3):
    probs = [(1 - abstain_rate) / 2, (1 - abstain_rate) / 2, abstain_rate]
    return WeakVoteMatrix(rng.choice([0, 1, ABSTAIN], size=(n, k), p=probs).astype(np.int8))


def random_alpha(rng, votes, low=0.05, high=2.0):
    return votes.cast_mask * rng.uniform(low, high, size=votes.votes.shape)


def reduce_and_solve(g, labels, votes, alpha, config=None):
    return solve_with_prior(g, labels, reduce_to_single_prior(votes, alpha), config)


class TestSolveMultiSource:
    def test_single_labeler_equals_prior_solve(self):
        rng = np.random.default_rng(2)
        n = 7
        g = Graph.from_edges(n, random_connected_graph(rng, n))
        labels = LabelSet([0, 4], [1, 0])
        votes = WeakVoteMatrix(rng.integers(0, 2, size=(n, 1)).astype(np.int8))
        mu = 0.7
        alpha = alpha_constant(votes, mu)
        pred = reduce_and_solve(g, labels, votes, alpha)
        prior = PriorField(votes.votes[:, 0].astype(float), np.full(n, mu))
        ref = solve_with_prior(g, labels, prior)
        assert np.max(np.abs(pred.f - ref.f)) < 1e-8

    def test_zero_alpha_equals_standard(self):
        rng = np.random.default_rng(3)
        n = 6
        g = Graph.from_edges(n, random_connected_graph(rng, n))
        labels = LabelSet([1], [1])
        votes = random_votes(rng, n, 2)
        alpha = alpha_constant(votes, 0.0)
        pred = reduce_and_solve(g, labels, votes, alpha)
        ref = solve_standard(g, labels)
        assert np.max(np.abs(pred.f - ref.f)) < 1e-8

    @pytest.mark.parametrize(
        "seed, method",
        [(seed, "direct") for seed in range(15)] + [(seed, "iterative") for seed in range(15)],
        ids=[str(seed) for seed in range(15)] + [f"iterative-{seed}" for seed in range(15)],
    )
    def test_dongle_reduction_equivalence(self, seed, method):
        rng = np.random.default_rng(seed + 50)
        n = int(rng.integers(4, 9))
        g = Graph.from_edges(n, random_connected_graph(rng, n))
        idx, vals = random_labels(rng, n)
        labels = LabelSet(idx, vals)
        votes = random_votes(rng, n, int(rng.integers(1, 5)))
        alpha = random_alpha(rng, votes)
        config = SolverConfig(method=method)
        via_anchors = anchor_graph_solve(g, labels, votes, alpha, config)
        via_prior = reduce_and_solve(g, labels, votes, alpha, config)
        assert via_prior.method == method and via_prior.converged
        # Gauss-Seidel sweeps the same update on both graphs, so the iterates
        # agree far inside the tolerance they stop at
        tol = 1e-8 if method == "direct" else config.tolerance
        assert np.max(np.abs(via_anchors - via_prior.f)) < tol

    def test_objective_identity_on_random_f(self):
        rng = np.random.default_rng(8)
        n = 6
        g = Graph.from_edges(n, random_connected_graph(rng, n))
        labels = LabelSet([0], [1])
        votes = random_votes(rng, n, 3)
        alpha = random_alpha(rng, votes)
        anchors, combined = anchor_graph(g, labels, votes, alpha)
        anchor_values = combined.values[combined.indices >= n].astype(float)
        reduced = reduce_to_single_prior(votes, alpha)
        # the anchor-graph objective and the reduced-prior one differ by a
        # constant (the trust-weighted vote variance), so they share minimizers
        gaps = []
        for _ in range(10):
            f = rng.uniform(0, 1, n)
            f[0] = 1.0
            f_ext = np.concatenate([f, anchor_values])
            on_anchors = objective_value(
                anchors, combined, PriorField.constant(anchors.node_count), f_ext
            )
            gaps.append(on_anchors - objective_value(g, labels, reduced, f))
        assert gaps[0] > 0
        for gap in gaps[1:]:
            assert gap == pytest.approx(gaps[0], rel=1e-12)

    def test_identical_copies_scale_like_single_labeler(self):
        rng = np.random.default_rng(4)
        n = 8
        g = Graph.from_edges(n, random_connected_graph(rng, n))
        labels = LabelSet([0, 5], [1, 0])
        col = rng.choice([0, 1, ABSTAIN], size=n, p=[0.4, 0.4, 0.2]).astype(np.int8)
        k = 3
        votes_k = WeakVoteMatrix(np.tile(col[:, None], (1, k)))
        votes_1 = WeakVoteMatrix(col[:, None])
        pred_k = reduce_and_solve(g, labels, votes_k, alpha_constant(votes_k, 0.6))
        pred_1 = reduce_and_solve(g, labels, votes_1, alpha_constant(votes_1, 0.6 * k))
        assert np.max(np.abs(pred_k.f - pred_1.f)) < 1e-8


class TestReduceToSinglePrior:
    def test_worked_example_three_labelers(self):
        votes = WeakVoteMatrix(np.array([[1, 1, 1], [1, ABSTAIN, ABSTAIN]], dtype=np.int8))
        alpha = alpha_accuracy(votes, LabelerAccuracy([0.8, 0.8, 0.8]))
        prior = reduce_to_single_prior(votes, alpha)
        assert prior.h[0] == pytest.approx(1.0, abs=1e-12)
        assert prior.h[1] == pytest.approx(1.0, abs=1e-12)
        assert prior.mu[0] == pytest.approx(2.4, abs=1e-12)
        assert prior.mu[1] == pytest.approx(0.8, abs=1e-12)

    def test_all_abstain_gives_neutral(self):
        votes = WeakVoteMatrix(np.full((2, 3), ABSTAIN, dtype=np.int8))
        prior = reduce_to_single_prior(votes, alpha_constant(votes, 1.0))
        assert np.all(prior.h == 0.5) and np.all(prior.mu == 0.0)

    def test_weighted_average(self):
        votes = WeakVoteMatrix(np.array([[1, 0]], dtype=np.int8))
        prior = reduce_to_single_prior(votes, np.array([[2.0, 1.0]]))
        assert prior.h[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert prior.mu[0] == pytest.approx(3.0, rel=1e-12)

    def test_rejects_alpha_on_abstain(self):
        votes = WeakVoteMatrix(np.array([[ABSTAIN], [1]], dtype=np.int8))
        with pytest.raises(ValueError, match="abstain"):
            reduce_to_single_prior(votes, np.array([[0.5], [0.5]]))

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_alpha(self, bad):
        votes = WeakVoteMatrix(np.array([[1, 0], [0, 1]], dtype=np.int8))
        alpha = np.ones((2, 2))
        alpha[1, 0] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            reduce_to_single_prior(votes, alpha)
        # the constant scheme's weight reaches the same check through vote_prior
        with pytest.raises(ValueError, match="finite and non-negative"):
            vote_prior(votes, "constant", LabelSet([0], [1]), constant=bad)

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (3, 2), (2, 2, 1)])
    def test_rejects_alpha_of_another_shape(self, shape):
        votes = WeakVoteMatrix(np.array([[1, 0], [0, 1]], dtype=np.int8))
        with pytest.raises(ValueError, match="alpha shape does not match votes"):
            reduce_to_single_prior(votes, np.ones(shape))


class TestAlphaSchemes:
    def test_oracle_perfect_labeler(self):
        y = np.array([0, 1, 1])
        votes = WeakVoteMatrix(np.array([[0], [1], [ABSTAIN]], dtype=np.int8))
        a = alpha_oracle(votes, y)
        assert a[:, 0].tolist() == [1.0, 1.0, 0.0]

    def test_oracle_always_wrong(self):
        y = np.array([0, 1])
        votes = WeakVoteMatrix(np.array([[1], [0]], dtype=np.int8))
        assert np.all(alpha_oracle(votes, y) == 0.0)

    @pytest.mark.parametrize("truth", [[0, 2, 1], [0, np.nan, 1], [0, ABSTAIN, 1]])
    def test_oracle_rejects_truth_that_is_not_0_or_1(self, truth):
        votes = WeakVoteMatrix(np.array([[0], [1], [ABSTAIN]], dtype=np.int8))
        with pytest.raises(ValueError, match="0 or 1"):
            alpha_oracle(votes, truth)

    def test_oracle_mixed_entries(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 2, 20)
        votes = random_votes(rng, 20, 3)
        a = alpha_oracle(votes, y)
        for i in range(20):
            for j in range(3):
                v = votes.votes[i, j]
                expect = 1.0 if (v != ABSTAIN and v == y[i]) else 0.0
                assert a[i, j] == expect

    def test_accuracy_constant_columns(self):
        votes = WeakVoteMatrix(np.array([[1, 0], [0, 1], [1, ABSTAIN]], dtype=np.int8))
        a = alpha_accuracy(votes, LabelerAccuracy([0.6, 0.9]))
        assert a[:, 0].tolist() == [0.6, 0.6, 0.6]
        assert a[:, 1].tolist() == [0.9, 0.9, 0.0]

    def test_boosting_values(self):
        votes = WeakVoteMatrix(np.array([[1, 1, 1]], dtype=np.int8))
        e = np.e
        a = alpha_boosting(votes, LabelerAccuracy([0.5, e / (1 + e), 0.3]))
        assert a[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert a[0, 1] == pytest.approx(1.0, rel=1e-12)
        assert a[0, 2] == 0.0  # ln(3/7) < 0, clamped

    def test_boosting_clips_extreme_accuracy(self):
        votes = WeakVoteMatrix(np.array([[1]], dtype=np.int8))
        a = alpha_boosting(votes, LabelerAccuracy([0.999]))
        assert a[0, 0] == pytest.approx(np.log(0.99 / 0.01), rel=1e-12)

    def test_accuracy_type_rejects_extremes(self):
        with pytest.raises(ValueError):
            LabelerAccuracy([1.0])
        with pytest.raises(ValueError):
            LabelerAccuracy([0.0])

    @given(st.floats(0.501, 0.99), st.floats(0.501, 0.99))
    def test_boosting_strictly_increasing(self, p1, p2):
        if p1 == p2:
            return
        votes = WeakVoteMatrix(np.array([[1, 1]], dtype=np.int8))
        a = alpha_boosting(votes, LabelerAccuracy([p1, p2]))
        assert (a[0, 0] < a[0, 1]) == (p1 < p2)

    @pytest.mark.parametrize("scheme", ["oracle", "accuracy", "boosting", "constant", "probabilistic"])
    def test_all_schemes_zero_on_abstain(self, scheme):
        rng = np.random.default_rng(6)
        n, k = 12, 3
        votes = random_votes(rng, n, k, abstain_rate=0.4)
        y = rng.integers(0, 2, n)
        labels = LabelSet([0, 1, 2, 3], y[:4])
        feats = rng.normal(size=(n, 2))
        acc = LabelerAccuracy([0.7, 0.8, 0.9])
        if scheme == "oracle":
            a = alpha_oracle(votes, y)
        elif scheme == "accuracy":
            a = alpha_accuracy(votes, acc)
        elif scheme == "boosting":
            a = alpha_boosting(votes, acc)
        elif scheme == "constant":
            a = alpha_constant(votes, 1.3)
        else:
            a = alpha_probabilistic(votes, feats, labels)
        assert np.all(a[~votes.cast_mask] == 0.0)


class TestVotePrior:
    @pytest.fixture()
    def instance(self):
        rng = np.random.default_rng(8)
        n = 16
        votes = random_votes(rng, n, 3)
        y = rng.integers(0, 2, n)
        return votes, LabelSet([0, 1, 2, 3, 4], y[:5]), rng.normal(size=(n, 2)), y

    def test_each_scheme_reduces_its_alpha(self, instance):
        votes, labels, feats, y = instance
        estimated = estimate_accuracy_from_labeled(votes, labels)
        given_acc = LabelerAccuracy([0.6, 0.7, 0.95])
        cases = {
            "accuracy": alpha_accuracy(votes, estimated),
            "boosting": alpha_boosting(votes, estimated),
            "probabilistic": alpha_probabilistic(votes, feats, labels, 3),
            "constant": alpha_constant(votes, 0.4),
            "oracle": alpha_oracle(votes, y),
        }
        assert set(cases) == set(multisource.ALPHA_SCHEMES)
        for scheme, alpha in cases.items():
            prior = vote_prior(votes, scheme, labels, features=feats, truth=y,
                               constant=0.4, k_neighbors=3)
            ref = reduce_to_single_prior(votes, alpha)
            assert np.array_equal(prior.h, ref.h) and np.array_equal(prior.mu, ref.mu), scheme
        for scheme, alpha_fn in (("accuracy", alpha_accuracy), ("boosting", alpha_boosting)):
            prior = vote_prior(votes, scheme, labels, accuracy=given_acc)
            ref = reduce_to_single_prior(votes, alpha_fn(votes, given_acc))
            assert np.array_equal(prior.mu, ref.mu), scheme

    @pytest.mark.parametrize("scheme, message", [
        ("probabilistic", "requires features"),
        ("oracle", "requires the true labels"),
        ("anchors", "unknown alpha scheme"),
    ])
    def test_missing_input_or_unknown_scheme_rejected(self, instance, scheme, message):
        votes, labels, _, _ = instance
        with pytest.raises(ValueError, match=message):
            vote_prior(votes, scheme, labels)

    @pytest.mark.parametrize("scheme", multisource.ALPHA_SCHEMES)
    def test_accuracy_of_wrong_length_rejected(self, instance, scheme):
        votes, labels, feats, y = instance
        with pytest.raises(ValueError, match="does not match labeler count"):
            vote_prior(votes, scheme, labels, accuracy=LabelerAccuracy([0.7, 0.8]),
                       features=feats, truth=y)

    @pytest.mark.parametrize("scheme", ["accuracy", "boosting"])
    @pytest.mark.parametrize("index, message", [(-1, "labeled index negative"),
                                                (16, "labeled index out of range")])
    def test_estimated_accuracy_rejects_a_label_off_the_votes(self, instance, scheme, index,
                                                              message):
        # a negative index would read the last node's votes, one past them index nothing
        votes, _, _, _ = instance
        with pytest.raises(ValueError, match=message):
            vote_prior(votes, scheme, LabelSet([index, 3], [1, 0]))


class TestEstimateAccuracy:
    def test_laplace_smoothing(self):
        # 8 correct of 10 cast votes -> (8+1)/(10+2)
        y = np.array([1] * 10)
        col = np.array([1] * 8 + [0] * 2, dtype=np.int8)
        votes = WeakVoteMatrix(col[:, None])
        labels = LabelSet(np.arange(10), y)
        acc = estimate_accuracy_from_labeled(votes, labels)
        assert acc.p[0] == pytest.approx(9.0 / 12.0, rel=1e-12)

    def test_no_votes_gives_half(self):
        votes = WeakVoteMatrix(np.full((4, 1), ABSTAIN, dtype=np.int8))
        labels = LabelSet(np.arange(4), [0, 1, 0, 1])
        assert estimate_accuracy_from_labeled(votes, labels).p[0] == 0.5

    def test_all_correct(self):
        y = np.array([1, 0, 1, 0, 1])
        votes = WeakVoteMatrix(y.astype(np.int8)[:, None])
        labels = LabelSet(np.arange(5), y)
        acc = estimate_accuracy_from_labeled(votes, labels)
        assert acc.p[0] == pytest.approx(6.0 / 7.0, rel=1e-12)


class TestAlphaProbabilistic:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected_naming_the_first_node(self, bad):
        y = np.array([0, 1, 0, 1, 1])
        votes = WeakVoteMatrix(y.astype(np.int8)[:, None])
        feats = np.arange(10, dtype=float).reshape(5, 2)
        feats[[2, 4], 1] = bad
        labels = LabelSet([0, 1], [0, 1])
        with pytest.raises(ValueError, match="node 2 has a non-finite feature"):
            alpha_probabilistic(votes, feats, labels, k_neighbors=2)
        with pytest.raises(ValueError, match="node 2 has a non-finite feature"):
            vote_prior(votes, "probabilistic", labels, features=feats, k_neighbors=2)

    def test_features_whose_squared_distances_overflow_rejected(self):
        votes = WeakVoteMatrix(np.array([0, 1, 0, 1, 1], dtype=np.int8)[:, None])
        feats = np.arange(10, dtype=float).reshape(5, 2) * 1.1e154 / 8
        labels = LabelSet([0, 1], [0, 1])
        with pytest.raises(ValueError, match=r"features span up to 1\.1e\+154 along an axis"):
            alpha_probabilistic(votes, feats, labels, k_neighbors=2)
        assert alpha_probabilistic(votes, feats / 10, labels, k_neighbors=2).shape == (5, 1)

    @pytest.mark.parametrize("shape", [(5,), (4, 2), (5, 2, 1)])
    def test_features_of_the_wrong_shape_rejected(self, shape):
        votes = WeakVoteMatrix(np.array([0, 1, 0, 1, 1], dtype=np.int8)[:, None])
        with pytest.raises(ValueError, match=r"features must be \(node_count, d\)"):
            alpha_probabilistic(votes, np.zeros(shape), LabelSet([0, 1], [0, 1]), k_neighbors=2)

    def test_exact_labeler_hits_trust_cap(self):
        y = np.array([0, 1, 0, 1])
        votes = WeakVoteMatrix(y.astype(np.int8)[:, None])
        feats = np.arange(4, dtype=float)[:, None]
        labels = LabelSet(np.arange(4), y)
        a = alpha_probabilistic(votes, feats, labels, k_neighbors=2)
        assert np.allclose(a[:, 0], 1e4, rtol=1e-9)

    def test_constant_residual_gives_constant_trust(self):
        # every labeled residual is 1, so the kNN regression is constant and
        # alpha = 1/(1 + floor) at every node
        y = np.array([0, 0, 0])
        votes = WeakVoteMatrix(np.ones((3, 1), dtype=np.int8))
        feats = np.array([[0.0], [1.0], [50.0]])
        labels = LabelSet([0, 1], [0, 0])
        a = alpha_probabilistic(votes, feats, labels, k_neighbors=2)
        expected = 1.0 / (1.0 + 1e-4)
        assert np.allclose(a[:, 0], expected, rtol=1e-9)

    def test_equidistant_geometric_mean(self):
        # two labeled support points with residuals 0.25 (vote .5 impossible;
        # binary votes give residuals in {0,1}) -> use one correct, one wrong:
        # g = mean(log(0+eps), log(1+eps)), alpha = exp(-g)
        y = np.array([1, 0, 1])
        votes = WeakVoteMatrix(np.array([[1], [1], [1]], dtype=np.int8))
        feats = np.array([[0.0], [2.0], [1.0]])
        labels = LabelSet([0, 1], [1, 0])
        a = alpha_probabilistic(votes, feats, labels, k_neighbors=2)
        eps = 1e-4
        expected = 1.0 / np.exp((np.log(0.0 + eps) + np.log(1.0 + eps)) / 2.0)
        assert a[2, 0] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("block_elements", [1, 150, 1001])
    def test_kd_tree_bitwise_equal_to_row_blocks(self, monkeypatch, block_elements):
        rng = np.random.default_rng(12)
        n = 90
        # 30 distinct points, each three times: every row has distance ties
        feats = np.repeat(rng.normal(size=(30, 2)), 3, axis=0)
        votes = random_votes(rng, n, 3)
        y = rng.integers(0, 2, n)
        labels = LabelSet(np.arange(0, n, 2), y[::2])
        got = alpha_probabilistic(votes, feats, labels, k_neighbors=4)
        monkeypatch.setattr(multisource, "_knn_mean", partial(block_knn_mean, block_elements=block_elements))
        want = alpha_probabilistic(votes, feats, labels, k_neighbors=4)
        assert got.tobytes() == want.tobytes()
        assert np.unique(got).size > 3

    @pytest.mark.parametrize("n, d, labeled", [(2_500, 2, 250), (2_000, 5, 200), (1_000, 10, 300)])
    def test_clustered_instances_bitwise_equal_to_row_blocks(self, monkeypatch, n, d, labeled):
        x, y = generate_clusters(SyntheticSpec(points_per_cluster=n // 2, dimension=d, seed=d))
        rng = np.random.default_rng(d)
        votes = random_votes(rng, n, 3)
        chosen = rng.choice(n, size=labeled, replace=False)
        labels = LabelSet(chosen, y[chosen])
        got = alpha_probabilistic(votes, x, labels)
        monkeypatch.setattr(multisource, "_knn_mean", block_knn_mean)
        assert got.tobytes() == alpha_probabilistic(votes, x, labels).tobytes()

    def test_only_cast_rows_are_queried(self, monkeypatch):
        x, y = generate_clusters(SyntheticSpec(points_per_cluster=300, seed=4))
        n = y.size
        rng = np.random.default_rng(4)
        votes = random_votes(rng, n, 3, abstain_rate=0.4)
        chosen = rng.choice(n, size=60, replace=False)
        labels = LabelSet(chosen, y[chosen])
        first_asked = []

        class CountingTree(cKDTree):
            def query(self, rows, k):
                if not hasattr(self, "asked"):
                    self.asked = True
                    first_asked.append(np.array(rows))
                return super().query(rows, k)

        # _knn_mean imports the kd-tree when called, so patch its source
        monkeypatch.setattr("scipy.spatial.cKDTree", CountingTree)
        got = alpha_probabilistic(votes, x, labels)
        cast = votes.cast_mask
        assert len(first_asked) == 3
        for j, rows in enumerate(first_asked):
            assert rows.tobytes() == x[cast[:, j]].tobytes()
        assert np.all(got[cast] > 0)
        assert np.all(got[~cast] == 0) and not np.any(np.signbit(got[~cast]))
        monkeypatch.setattr(multisource, "_knn_mean", block_knn_mean)
        assert got.tobytes() == alpha_probabilistic(votes, x, labels).tobytes()

    def test_ten_thousand_nodes_allocate_no_node_by_support_array(self):
        n, labeled = 10_000, 1_000
        x, y = generate_clusters(SyntheticSpec(points_per_cluster=n // 2))
        rng = np.random.default_rng(0)
        votes = random_votes(rng, n, 3)
        chosen = rng.choice(n, size=labeled, replace=False)
        labels = LabelSet(chosen, y[chosen])
        tracemalloc.start()
        try:
            alpha_probabilistic(votes, x, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # not even a boolean N x S array (9.5 MB; a float64 one is 76 MB)
        assert peak < n * labeled

    def test_fallback_when_no_labeled_support(self):
        votes = WeakVoteMatrix(
            np.array([[ABSTAIN], [ABSTAIN], [1], [0]], dtype=np.int8)
        )
        feats = np.arange(4, dtype=float)[:, None]
        labels = LabelSet([0, 1], [0, 1])  # labeler abstains on both
        a = alpha_probabilistic(votes, feats, labels)
        assert a[2, 0] == 0.5 and a[3, 0] == 0.5


class TestKnnMeanMatchesRowBlocks:
    @pytest.mark.parametrize("kind", ["normal", "grid", "tripled"])
    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    @pytest.mark.parametrize("support, kk", [(60, 10), (12, 10), (14, 10), (10, 10), (1, 1), (40, 1)])
    def test_bitwise_equal(self, kind, d, support, kk):
        rng = np.random.default_rng(support * 100 + kk * 10 + d)
        x = feature_points(kind, 120, d, seed=d)
        points = x[rng.choice(x.shape[0], size=support, replace=False)]
        values = rng.normal(size=support) * 10.0 ** rng.integers(-3, 3, size=support)
        got = multisource._knn_mean(x, points, values, kk)
        assert got.tobytes() == block_knn_mean(x, points, values, kk).tobytes()

    def test_tied_rows_are_asked_again_until_settled(self, monkeypatch):
        # twenty copies of one point beside twenty spread points: near the
        # copies every candidate ties with the farthest one, so those rows
        # settle only once the query reaches past the copies
        asked = []

        class CountingTree(cKDTree):
            def query(self, x, k):
                asked.append((len(x), k))
                return super().query(x, k)

        # _knn_mean imports the kd-tree when called, so patch its source
        monkeypatch.setattr("scipy.spatial.cKDTree", CountingTree)
        spread = np.column_stack((100.0 + np.arange(20), np.zeros(20)))
        points = np.vstack((np.zeros((20, 2)), spread))
        rng = np.random.default_rng(3)
        x = np.vstack((rng.normal(size=(30, 2)), rng.normal(size=(25, 2)) + [110.0, 0.0]))
        values = np.arange(40.0) ** 2
        got = multisource._knn_mean(x, points, values, 3)
        assert asked == [(55, 7), (30, 14), (30, 28)]
        assert got.tobytes() == block_knn_mean(x, points, values, 3).tobytes()
        assert np.all(got[:30] == values[:3].mean())


class TestVoteMatrix:
    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            WeakVoteMatrix(np.array([[2]], dtype=np.int8))

    @pytest.mark.parametrize("votes", [[[255]], [[0.9]], [[-1.5]]])
    def test_raw_entries_validated_before_the_cast(self, votes):
        # cast first, 255 and -1.5 became abstains and 0.9 a vote for 0
        with pytest.raises(ValueError, match="abstain"):
            WeakVoteMatrix(votes)

    def test_integral_floats_accepted(self):
        v = WeakVoteMatrix([[1.0, -1.0]])
        assert v.votes.dtype == np.int8
        assert v.votes.tolist() == [[1, ABSTAIN]]

    def test_single_column_promotion(self):
        v = WeakVoteMatrix(np.array([0, 1, ABSTAIN], dtype=np.int8))
        assert v.votes.shape == (3, 1)
