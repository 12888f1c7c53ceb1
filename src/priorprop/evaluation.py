"""Scoring, synthetic data, and the multi-method comparison pipeline.

A node *abstains* when its score is within ``epsilon`` of 0.5; abstentions
earn half credit, so

    accuracy = coverage * non_abstain_accuracy + (1 - coverage) * 0.5

holds exactly (accuracy is computed through this identity). The synthetic
generators produce Gaussian cluster data and independent noisy labelers for
desk-scale experiments; everything is deterministic under the spec seed.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from priorprop.bounds import BoundReport, compute_bound, hop_stats
from priorprop.graph import LabelSet, _as_truth, build_threshold_graph, compute_neighborhoods
from priorprop.multisource import ABSTAIN, ALPHA_SCHEMES, WeakVoteMatrix, vote_prior
from priorprop.solver import PriorField, SolverConfig, _check_count, scores, solve_with_prior

DEFAULT_EPSILON = 1e-3


def check_epsilon(epsilon: float) -> float:
    """The abstention width as a float; it must be finite and non-negative."""
    epsilon = float(epsilon)
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    return epsilon


PIPELINE_METHODS = ("lpa", "wl", "lpa+wl", *(f"lpad:{s}" for s in ALPHA_SCHEMES))


@dataclass(frozen=True, eq=False)
class Metrics:
    """Half-credit accuracy, coverage and non-abstain accuracy, derived from
    the node, abstention and correct counts."""

    abstain_epsilon: float
    node_count: int
    abstain_count: int
    correct_count: int

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError(f"node_count must be at least 1, got {self.node_count}")
        if not 0 <= self.abstain_count <= self.node_count:
            raise ValueError(
                f"abstain_count must lie in [0, {self.node_count}], got {self.abstain_count}"
            )
        voted = self.node_count - self.abstain_count
        if not 0 <= self.correct_count <= voted:
            raise ValueError(
                f"correct_count must lie in [0, {voted}] (the nodes that did not abstain), "
                f"got {self.correct_count}"
            )

    @property
    def coverage(self) -> float:
        return (self.node_count - self.abstain_count) / self.node_count

    @property
    def non_abstain_accuracy(self) -> float:
        """0.5 when every node abstains."""
        voted = self.node_count - self.abstain_count
        return self.correct_count / voted if voted else 0.5

    @property
    def accuracy(self) -> float:
        return self.coverage * self.non_abstain_accuracy + (1.0 - self.coverage) * 0.5

    def to_dict(self) -> dict[str, Any]:
        rates = ("accuracy", "coverage", "non_abstain_accuracy")
        return {name: getattr(self, name) for name in rates} | asdict(self)


def evaluate(prediction, true_labels_full, epsilon: float = DEFAULT_EPSILON) -> Metrics:
    """Score a prediction against full ground truth.

    A node abstains iff ``|f - 0.5| <= epsilon``; a non-abstaining node is
    correct iff its score is on the true label's side of 0.5.
    """
    epsilon = check_epsilon(epsilon)
    f = scores(prediction)
    y = _as_truth(true_labels_full, f.size)
    if f.shape != y.shape:
        raise ValueError("prediction and truth sizes differ")
    if f.size == 0:
        raise ValueError("prediction covers no node")
    abstain = np.abs(f - 0.5) <= epsilon
    correct = ~abstain & ((f > 0.5) == (y == 1))
    return Metrics(
        abstain_epsilon=epsilon,
        node_count=int(f.size),
        abstain_count=int(abstain.sum()),
        correct_count=int(correct.sum()),
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic clustered instance with noisy labelers."""

    cluster_count: int = 2
    points_per_cluster: int = 250
    separation: float = 100.0
    dimension: int = 2
    noise_scale: float = 1.0
    labeler_accuracies: tuple[float, ...] = (0.8, 0.8, 0.8)
    labeler_coverages: tuple[float, ...] = (0.6, 0.6, 0.6)
    seed: int = 0
    labeled_count: int = 100
    graph_degree_target: float = 10.0
    mu: float = 1.0
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        for name in ("cluster_count", "points_per_cluster", "dimension", "labeled_count"):
            _check_count(name, getattr(self, name))
        if not (hasattr(type(self.seed), "__index__") and operator.index(self.seed) >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.separation <= 0 or self.noise_scale < 0:
            raise ValueError("separation must be positive, noise_scale non-negative")
        if len(self.labeler_accuracies) != len(self.labeler_coverages):
            raise ValueError("one coverage per accuracy required")
        if not all(0 < a < 1 for a in self.labeler_accuracies):
            raise ValueError("labeler accuracies must lie in (0, 1)")
        if not all(0 <= c <= 1 for c in self.labeler_coverages):
            raise ValueError("labeler coverages must lie in [0, 1]")
        if self.labeled_count > self.node_count:
            raise ValueError("labeled_count must be between 1 and the point count")
        if not self.graph_degree_target > 0 or self.mu < 0:
            raise ValueError("degree target t must be positive and mu non-negative")
        check_epsilon(self.epsilon)

    @property
    def node_count(self) -> int:
        return self.cluster_count * self.points_per_cluster


def generate_clusters(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian blobs on a line; cluster classes alternate 0/1."""
    rng = np.random.default_rng(spec.seed)
    feats = []
    labels = []
    for c in range(spec.cluster_count):
        center = np.zeros(spec.dimension)
        center[0] = c * spec.separation
        with np.errstate(over="ignore"):  # the graph build rejects non-finite features
            pts = center + spec.noise_scale * rng.standard_normal(
                (spec.points_per_cluster, spec.dimension)
            )
        feats.append(pts)
        labels.append(np.full(spec.points_per_cluster, c % 2, dtype=np.int8))
    return np.vstack(feats), np.concatenate(labels)


def generate_weak_labelers(
    true_labels_full, accuracies: Sequence[float], coverages: Sequence[float], seed
) -> WeakVoteMatrix:
    """Independent labelers: vote with prob. coverage, correct with prob. accuracy."""
    y = np.asarray(true_labels_full)
    acc = np.asarray(accuracies, dtype=np.float64)
    cov = np.asarray(coverages, dtype=np.float64)
    if acc.shape != cov.shape or acc.ndim != 1 or acc.size < 1:
        raise ValueError("accuracies and coverages must be equal-length 1-D sequences")
    if np.any(acc <= 0) or np.any(acc >= 1) or np.any(cov < 0) or np.any(cov > 1):
        raise ValueError("accuracies in (0,1), coverages in [0,1] required")
    rng = np.random.default_rng(seed)
    n, k = y.size, acc.size
    votes = np.full((n, k), ABSTAIN, dtype=np.int8)
    for j in range(k):
        cast = rng.random(n) < cov[j]
        correct = rng.random(n) < acc[j]
        col = np.where(correct, y, 1 - y).astype(np.int8)
        votes[cast, j] = col[cast]
    return WeakVoteMatrix(votes)


def _select_labeled(y: np.ndarray, count: int, seed) -> LabelSet:
    """Class-balanced labeled subset, deterministic under the seed."""
    rng = np.random.default_rng(seed)
    picks = []
    per_class = [count - count // 2, count // 2]
    for c, want in enumerate(per_class):
        pool = np.flatnonzero(y == c)
        if pool.size < want:
            raise ValueError("not enough points in a class to label")
        picks.append(rng.permutation(pool)[:want])
    idx = np.sort(np.concatenate(picks))
    return LabelSet(idx, y[idx])


@dataclass(frozen=True, eq=False)
class MethodResult:
    method: str
    metrics: Metrics
    bound: BoundReport | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "metrics": self.metrics.to_dict(),
            "bound_report": self.bound.to_dict() if self.bound is not None else None,
        }


@dataclass(frozen=True, eq=False)
class PipelineReport:
    spec: SyntheticSpec
    results: tuple[MethodResult, ...]

    def result(self, method: str) -> MethodResult:
        for r in self.results:
            if r.method == method:
                return r
        raise KeyError(method)

    def to_dict(self) -> dict[str, Any]:
        return {"spec": asdict(self.spec), "results": [r.to_dict() for r in self.results]}

    def to_text(self) -> str:
        header = f"{'method':<20} {'accuracy':>10} {'coverage':>10} {'na_accuracy':>12}"
        lines = [header, "-" * len(header)]
        for r in self.results:
            m = r.metrics
            lines.append(
                f"{r.method:<20} {m.accuracy:>10.4f} {m.coverage:>10.4f} "
                f"{m.non_abstain_accuracy:>12.4f}"
            )
        return "\n".join(lines)


def pipeline_report(
    spec: SyntheticSpec,
    methods: Sequence[str] = PIPELINE_METHODS,
    with_bounds: bool = True,
) -> PipelineReport:
    """Run the requested methods on one synthetic instance and score them.

    ``wl`` is the weighted-vote prior evaluated directly (no propagation);
    ``lpa+wl`` propagates with that prior at constant ``spec.mu``; ``lpad:*``
    methods fuse the labelers with the named trust scheme through the
    reduced prior, the anchor-graph model's equivalent. Every propagation
    method solves once, and its bound report bounds the scored prediction.
    """
    for m in methods:
        if m not in PIPELINE_METHODS:
            raise ValueError(f"unknown method {m!r}")
    features, truth = generate_clusters(spec)
    votes = generate_weak_labelers(
        truth, spec.labeler_accuracies, spec.labeler_coverages, spec.seed + 1_000_003
    )
    labels = _select_labeled(truth, spec.labeled_count, spec.seed + 2_000_003)
    graph = build_threshold_graph(features, spec.graph_degree_target)
    partition = compute_neighborhoods(graph, labels)
    wl_prior = vote_prior(votes, "accuracy", labels)
    config = SolverConfig()

    results = []
    for method in methods:
        if method == "wl":
            results.append(MethodResult(method, evaluate(wl_prior.h, truth, spec.epsilon), None))
            continue
        if method == "lpa":
            prior = PriorField.constant(graph.node_count)
        elif method == "lpa+wl":
            prior = PriorField(wl_prior.h, np.full(graph.node_count, spec.mu))
        elif method == "lpad:accuracy":
            prior = wl_prior  # the accuracy scheme reads neither features nor truth
        else:
            prior = vote_prior(
                votes, method.split(":", 1)[1], labels, features=features, truth=truth
            )
        pred = solve_with_prior(graph, labels, prior, config)
        bound = None
        if with_bounds:
            bound = compute_bound(hop_stats(truth, prior, partition, pred))
        results.append(MethodResult(method, evaluate(pred.f, truth, spec.epsilon), bound))
    return PipelineReport(spec=spec, results=tuple(results))
