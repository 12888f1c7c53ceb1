import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from priorprop.evaluation import (
    Metrics,
    SyntheticSpec,
    evaluate,
    generate_clusters,
    generate_weak_labelers,
    pipeline_report,
)
from priorprop.bounds import hop_stats
from priorprop.graph import LabelSet, build_threshold_graph, compute_neighborhoods
from priorprop.multisource import ABSTAIN, WeakVoteMatrix, vote_prior
from priorprop.solver import PriorField, SolverConfig


def _probabilistic_prior(k_neighbors):
    votes = WeakVoteMatrix(np.array([[1], [0], [1]], dtype=np.int8))
    vote_prior(votes, "probabilistic", LabelSet([0, 1], [1, 0]),
               features=np.arange(3.0)[:, None], k_neighbors=k_neighbors)


COUNTS = {
    "max_iterations": lambda v: SolverConfig(max_iterations=v),
    "cluster_count": lambda v: SyntheticSpec(cluster_count=v),
    "points_per_cluster": lambda v: SyntheticSpec(points_per_cluster=v, labeled_count=2),
    "dimension": lambda v: SyntheticSpec(dimension=v),
    "labeled_count": lambda v: SyntheticSpec(labeled_count=v),
    "k_neighbors": _probabilistic_prior,
}


@pytest.mark.parametrize("name", COUNTS)
def test_non_integer_counts_are_rejected_by_name(name):
    # 2.5 used to pass until a range or slice raised TypeError, or tripped
    # the labeled_count check; an integral count still passes
    make = COUNTS[name]
    make(2)
    for bad in (2.5, 0):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer, got {bad}"):
            make(bad)


class TestEvaluate:
    def test_all_half_scores(self):
        f = np.full(10, 0.5)
        y = np.random.default_rng(0).integers(0, 2, 10)
        m = evaluate(f, y)
        assert m.coverage == 0.0
        assert m.accuracy == 0.5
        assert m.non_abstain_accuracy == 0.5

    def test_exact_prediction(self):
        y = np.array([0, 1, 1, 0])
        m = evaluate(y.astype(float), y)
        assert m.coverage == 1.0 and m.accuracy == 1.0

    def test_partial_abstention_arithmetic(self):
        y = np.ones(10, dtype=int)
        f = np.full(10, 0.9)
        f[:2] = 0.5
        m = evaluate(f, y)
        assert m.coverage == pytest.approx(0.8)
        assert m.non_abstain_accuracy == 1.0
        assert m.accuracy == pytest.approx(0.9)

    def test_epsilon_boundary_abstains(self):
        # |f - 0.5| == epsilon abstains; anything beyond does not
        y = np.array([1, 1])
        f = np.array([0.75, 0.75 + 1e-9])
        m = evaluate(f, y, epsilon=0.25)
        assert m.abstain_count == 1

    def test_identity_holds_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            f = rng.uniform(0, 1, n)
            y = rng.integers(0, 2, n)
            m = evaluate(f, y)
            assert m.accuracy == m.coverage * m.non_abstain_accuracy + (1 - m.coverage) * 0.5

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_relabeling_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        f = rng.uniform(0, 1, n)
        y = rng.integers(0, 2, n)
        a = evaluate(f, y)
        b = evaluate(1.0 - f, 1 - y)
        assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)
        assert a.coverage == b.coverage

    @pytest.mark.parametrize("truth", [[1, 1, 2, np.nan], [1, 1, 2, 0]])
    def test_rejects_truth_that_is_not_0_or_1(self, truth):
        with pytest.raises(ValueError, match="0 or 1"):
            evaluate(np.array([0.9, 0.8, 0.1, 0.2]), truth)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_scores(self, bad):
        # unchecked, a nan reads as a vote for class 0: coverage 1.0, accuracy 0.5
        with pytest.raises(ValueError, match=f"node 0 has non-finite prediction {bad!r}"):
            evaluate(np.array([bad, 0.9]), np.array([1, 1]))

    def test_rejects_an_empty_prediction(self):
        # unchecked, every rate of the empty Metrics divides by zero when read
        with pytest.raises(ValueError, match="prediction covers no node"):
            evaluate(np.array([]), np.array([]))

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            evaluate(np.array([0.5]), np.array([1]), epsilon=-1.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            evaluate(np.array([0.5]), np.array([1]), epsilon=epsilon)


class TestMetricsValidation:
    @pytest.mark.parametrize("nodes, abstain, correct, field", [
        (0, 0, 0, "node_count"),
        (-1, 0, 0, "node_count"),
        (3, -1, 0, "abstain_count"),
        (3, 5, 0, "abstain_count"),
        (3, 1, -1, "correct_count"),
        (3, 1, 3, "correct_count"),
        # unchecked, coverage reads -0.667 and accuracy 3.17
        (3, 5, 7, "abstain_count"),
    ])
    def test_rejects_counts_that_contradict_each_other(self, nodes, abstain, correct, field):
        with pytest.raises(ValueError, match=field):
            Metrics(abstain_epsilon=1e-3, node_count=nodes, abstain_count=abstain,
                    correct_count=correct)

    @pytest.mark.parametrize("abstain, correct", [(0, 0), (0, 3), (3, 0), (1, 2)])
    def test_accepts_counts_at_the_limits(self, abstain, correct):
        m = Metrics(abstain_epsilon=1e-3, node_count=3, abstain_count=abstain,
                    correct_count=correct)
        assert 0.0 <= m.accuracy <= 1.0 and 0.0 <= m.coverage <= 1.0

    def test_evaluate_reproduces_the_golden_demo_metrics(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "demo_golden.json").read_text()
        )
        spec = SyntheticSpec(**{key: tuple(v) if isinstance(v, list) else v
                                for key, v in golden["spec"].items()})
        report = pipeline_report(spec, with_bounds=False)
        assert [r.metrics.to_dict() for r in report.results] == [
            row["metrics"] for row in golden["results"]
        ]


class TestGenerators:
    def test_cluster_counts_and_classes(self):
        spec = SyntheticSpec(points_per_cluster=50, seed=1)
        feats, y = generate_clusters(spec)
        assert feats.shape == (100, spec.dimension)
        assert int((y == 0).sum()) == 50 and int((y == 1).sum()) == 50

    def test_separation_prevents_cross_edges(self):
        spec = SyntheticSpec(points_per_cluster=40, separation=500.0, seed=2,
                             labeled_count=16)
        feats, y = generate_clusters(spec)
        g = build_threshold_graph(feats, t=6.0)
        labels = LabelSet([0, 40], y[[0, 40]])
        part = compute_neighborhoods(g, labels)
        prior = PriorField.constant(g.node_count, mu=1.0)
        stats = hop_stats(y, prior, part, y.astype(np.float64))
        assert stats.smoothness[1:].tolist() == [0.0] * part.max_hop

    def test_determinism(self):
        spec = SyntheticSpec(seed=7)
        a = generate_clusters(spec)
        b = generate_clusters(spec)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        va = generate_weak_labelers(a[1], (0.8, 0.9), (0.5, 0.7), 3)
        vb = generate_weak_labelers(b[1], (0.8, 0.9), (0.5, 0.7), 3)
        assert np.array_equal(va.votes, vb.votes)

    def test_zero_coverage_all_abstain(self):
        y = np.zeros(50, dtype=np.int8)
        v = generate_weak_labelers(y, (0.8,), (0.0,), 0)
        assert np.all(v.votes == ABSTAIN)

    def test_full_coverage_perfect_accuracy(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, 100).astype(np.int8)
        v = generate_weak_labelers(y, (0.999999,), (1.0,), 4)
        assert np.array_equal(v.votes[:, 0], y)

    def test_empirical_accuracy_concentrates(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 2, 10_000).astype(np.int8)
        v = generate_weak_labelers(y, (0.8,), (1.0,), 11)
        emp = float((v.votes[:, 0] == y).mean())
        assert abs(emp - 0.8) < 0.02


class TestPipeline:
    def small_spec(self, **kw):
        base = dict(points_per_cluster=40, labeled_count=16, seed=0,
                    graph_degree_target=6.0)
        base.update(kw)
        return SyntheticSpec(**base)

    def test_perfect_labelers_reach_full_accuracy(self):
        spec = self.small_spec(labeler_accuracies=(0.999999, 0.999999),
                               labeler_coverages=(1.0, 1.0), seed=3)
        rep = pipeline_report(spec, methods=("wl", "lpa+wl", "lpad:accuracy"),
                              with_bounds=False)
        for r in rep.results:
            assert r.metrics.accuracy == 1.0

    def test_zero_coverage_collapses_to_lpa(self):
        spec = self.small_spec(labeler_coverages=(0.0, 0.0, 0.0), seed=4)
        rep = pipeline_report(
            spec,
            methods=("lpa", "lpa+wl", "lpad:accuracy", "lpad:boosting",
                     "lpad:probabilistic", "lpad:constant"),
            with_bounds=False,
        )
        lpa = rep.result("lpa").metrics
        for r in rep.results:
            assert r.metrics.accuracy == lpa.accuracy
            assert r.metrics.coverage == lpa.coverage

    def test_weak_prior_raises_coverage(self):
        spec = self.small_spec(seed=5)
        rep = pipeline_report(spec, methods=("lpa", "lpa+wl"), with_bounds=False)
        assert rep.result("lpa+wl").metrics.coverage >= rep.result("lpa").metrics.coverage

    def test_deterministic_under_seed(self):
        spec = self.small_spec(seed=6)
        a = pipeline_report(spec, methods=("lpa", "wl", "lpad:accuracy"), with_bounds=False)
        b = pipeline_report(spec, methods=("lpa", "wl", "lpad:accuracy"), with_bounds=False)
        assert a.to_dict() == b.to_dict()

    def test_bound_reports_attached_to_propagation_methods(self):
        spec = self.small_spec(seed=7)
        rep = pipeline_report(spec, methods=("lpa", "wl", "lpad:oracle"))
        assert rep.result("lpa").bound is not None
        assert rep.result("wl").bound is None
        assert rep.result("lpad:oracle").bound is not None

    def test_text_table_lists_all_methods(self):
        spec = self.small_spec(seed=8)
        rep = pipeline_report(spec, methods=("lpa", "wl"), with_bounds=False)
        text = rep.to_text()
        assert "lpa" in text and "wl" in text and "accuracy" in text

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            pipeline_report(self.small_spec(), methods=("nope",))


class TestSyntheticSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SyntheticSpec(labeler_accuracies=(1.0,), labeler_coverages=(0.5,))
        with pytest.raises(ValueError):
            SyntheticSpec(labeler_coverages=(0.5,))  # length mismatch vs 3 accuracies
        with pytest.raises(ValueError):
            SyntheticSpec(labeled_count=10_000)
        with pytest.raises(ValueError):
            SyntheticSpec(separation=0.0)
        with pytest.raises(ValueError, match="degree target"):
            SyntheticSpec(graph_degree_target=np.nan)
        with pytest.raises(ValueError, match="epsilon"):
            SyntheticSpec(epsilon=np.nan)

    def test_seed_must_be_a_non_negative_integer(self):
        # 1.5 used to pass until numpy's generator raised TypeError, and -1
        # failed there with a message that did not name the seed
        for bad in (1.5, -1):
            with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {bad}"):
                SyntheticSpec(seed=bad)
        assert SyntheticSpec(seed=0).seed == 0
