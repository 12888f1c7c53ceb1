"""Fusing several abstaining binary labelers into label propagation.

Each labeler votes ``0``/``1`` or abstains (encoded ``-1``). A per-node,
per-labeler trust weight ``alpha`` turns the votes into either

* an augmented graph: two extra hard-labeled nodes per labeler (one per
  class), with each non-abstaining vote wired to the matching class node at
  weight ``alpha`` - propagation then runs unchanged on the bigger graph; or
* an equivalent single prior: ``h = weighted vote average``,
  ``mu = total alpha`` per node.

Both routes minimize the same objective and agree to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from priorprop.graph import Graph, LabelSet
from priorprop.solver import Prediction, PriorField, SolverConfig, solve_with_prior

ABSTAIN = -1

ALPHA_SCHEMES = ("oracle", "accuracy", "boosting", "probabilistic", "constant")

ACCURACY_CLIP = (0.01, 0.99)
RESIDUAL_FLOOR = 1e-4


@dataclass(frozen=True, eq=False)
class WeakVoteMatrix:
    """Votes of ``k`` labelers on every node: 0, 1 or ABSTAIN (-1)."""

    votes: np.ndarray

    def __init__(self, votes):
        v = np.asarray(votes)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError("votes must be a (node_count, k) matrix with k >= 1")
        v = v.astype(np.int8)
        if not np.all(np.isin(v, (0, 1, ABSTAIN))):
            raise ValueError("votes must be 0, 1 or -1 (abstain)")
        object.__setattr__(self, "votes", v)

    @property
    def node_count(self) -> int:
        return int(self.votes.shape[0])

    @property
    def labeler_count(self) -> int:
        return int(self.votes.shape[1])

    @property
    def cast_mask(self) -> np.ndarray:
        return self.votes != ABSTAIN


@dataclass(frozen=True, eq=False)
class LabelerAccuracy:
    """Estimated accuracy per labeler, strictly inside (0, 1)."""

    p: np.ndarray

    def __init__(self, p: Sequence[float]):
        pv = np.asarray(p, dtype=np.float64)
        if pv.ndim != 1:
            raise ValueError("p must be 1-D")
        if not np.all(np.isfinite(pv)) or np.any(pv <= 0) or np.any(pv >= 1):
            raise ValueError("accuracies must lie strictly between 0 and 1")
        object.__setattr__(self, "p", pv)


@dataclass(frozen=True, eq=False)
class AlphaAssignment:
    """Non-negative trust weights, zero wherever the labeler abstained."""

    alpha: np.ndarray
    scheme: str
    fallback_labelers: tuple[int, ...] = ()

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("alpha must be a (node_count, k) matrix")
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValueError("alpha must be finite and non-negative")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True, eq=False)
class AugmentedGraph:
    """Base graph plus two hard-labeled class anchors per labeler.

    Labeler ``j``'s class-0 anchor sits at index ``base_count + j`` and its
    class-1 anchor at ``base_count + labeler_count + j``.
    """

    graph: Graph
    base_count: int
    labeler_count: int

    @property
    def dongle_edge_count(self) -> int:
        g, n = self.graph, self.base_count
        return int(np.count_nonzero(g.indices[: g.indptr[n]] >= n))

    def dongle_labels(self) -> LabelSet:
        n, k = self.base_count, self.labeler_count
        idx = np.arange(n, n + 2 * k)
        val = np.concatenate([np.zeros(k, np.int8), np.ones(k, np.int8)])
        return LabelSet(idx, val)


def _check_vote_alpha(votes: WeakVoteMatrix, alpha: AlphaAssignment) -> None:
    if alpha.alpha.shape != votes.votes.shape:
        raise ValueError("alpha shape does not match votes")
    if np.any(alpha.alpha[~votes.cast_mask] > 0):
        raise ValueError("alpha must be zero wherever the labeler abstained")


def augment_with_dongles(
    graph: Graph, votes: WeakVoteMatrix, alpha: AlphaAssignment
) -> AugmentedGraph:
    """Attach class-anchor nodes and vote edges to the base graph."""
    if votes.node_count != graph.node_count:
        raise ValueError("votes do not match graph size")
    _check_vote_alpha(votes, alpha)
    n, k = graph.node_count, votes.labeler_count
    rows, cols, w = graph._upper_triangle()
    node, labeler = np.nonzero(votes.cast_mask)
    anchor = n + labeler + k * votes.votes[node, labeler].astype(np.int64)
    edges = np.column_stack(
        (
            np.concatenate((rows, node)),
            np.concatenate((cols, anchor)),
            np.concatenate((w, alpha.alpha[node, labeler])),
        )
    )
    aug = Graph.from_edges(n + 2 * k, edges)
    return AugmentedGraph(graph=aug, base_count=n, labeler_count=k)


def solve_multi_source(
    graph: Graph,
    labels: LabelSet,
    votes: WeakVoteMatrix,
    alpha: AlphaAssignment,
    config: SolverConfig | None = None,
) -> Prediction:
    """Propagate on the anchor-augmented graph; return the original nodes."""
    aug = augment_with_dongles(graph, votes, alpha)
    dongles = aug.dongle_labels()
    combined = LabelSet(
        np.concatenate([labels.indices, dongles.indices]),
        np.concatenate([labels.values, dongles.values]),
    )
    full = solve_with_prior(
        aug.graph, combined, PriorField.constant(aug.graph.node_count), config
    )
    n = graph.node_count
    return Prediction(
        f=full.f[:n].copy(),
        node_flags=full.node_flags[:n].copy(),
        method=full.method,
        iterations=full.iterations,
        residual=full.residual,
        converged=full.converged,
    )


def reduce_to_single_prior(votes: WeakVoteMatrix, alpha: AlphaAssignment) -> PriorField:
    """Collapse weighted votes into one prior: h = weighted mean, mu = total weight.

    Nodes where every labeler abstained (or all weights are zero) get
    ``h = 0.5, mu = 0`` - no prior influence.
    """
    _check_vote_alpha(votes, alpha)
    cast_votes = np.where(votes.cast_mask, votes.votes, 0).astype(np.float64)
    total = alpha.alpha.sum(axis=1)
    weighted = (alpha.alpha * cast_votes).sum(axis=1)
    h = np.full(votes.node_count, 0.5)
    supported = total > 0
    h[supported] = weighted[supported] / total[supported]
    return PriorField(np.clip(h, 0.0, 1.0), total)


def alpha_oracle(votes: WeakVoteMatrix, true_labels: Sequence[int]) -> AlphaAssignment:
    """Full trust on correct votes, none on wrong ones (analysis mode only)."""
    y = np.asarray(true_labels)
    if y.shape != (votes.node_count,):
        raise ValueError("true_labels must cover every node")
    a = (votes.cast_mask & (votes.votes == y[:, None])).astype(np.float64)
    return AlphaAssignment(alpha=a, scheme="oracle")


def alpha_accuracy(votes: WeakVoteMatrix, acc: LabelerAccuracy) -> AlphaAssignment:
    """Constant per-labeler trust equal to its estimated accuracy."""
    if acc.p.size != votes.labeler_count:
        raise ValueError("accuracy vector does not match labeler count")
    a = votes.cast_mask * acc.p[None, :]
    return AlphaAssignment(alpha=a, scheme="accuracy")


def alpha_boosting(
    votes: WeakVoteMatrix, acc: LabelerAccuracy, scale: float = 1.0
) -> AlphaAssignment:
    """Log-odds trust ``scale * ln(p / (1-p))``, floored at zero.

    Accuracies are clipped to [0.01, 0.99] before the log-odds so the weights
    stay finite; ``scale=0.5`` gives the exponential-loss-optimal variant.
    """
    if acc.p.size != votes.labeler_count:
        raise ValueError("accuracy vector does not match labeler count")
    p = np.clip(acc.p, *ACCURACY_CLIP)
    w = np.maximum(0.0, scale * np.log(p / (1.0 - p)))
    a = votes.cast_mask * w[None, :]
    return AlphaAssignment(alpha=a, scheme="boosting")


def alpha_constant(votes: WeakVoteMatrix, value: float = 1.0) -> AlphaAssignment:
    """The same fixed trust on every cast vote."""
    if not (value >= 0) or not np.isfinite(value):
        raise ValueError("constant alpha must be finite and non-negative")
    a = votes.cast_mask * float(value)
    return AlphaAssignment(alpha=a, scheme="constant")


def estimate_accuracy_from_labeled(
    votes: WeakVoteMatrix, labels: LabelSet
) -> LabelerAccuracy:
    """Laplace-smoothed accuracy of each labeler on the labeled nodes.

    ``p_j = (correct + 1) / (cast + 2)``; a labeler that never votes on a
    labeled node gets 0.5.
    """
    sub = votes.votes[labels.indices]
    cast = sub != ABSTAIN
    correct = cast & (sub == labels.values[:, None])
    p = (correct.sum(axis=0) + 1.0) / (cast.sum(axis=0) + 2.0)
    return LabelerAccuracy(p)


def alpha_probabilistic(
    votes: WeakVoteMatrix,
    features: np.ndarray,
    labels: LabelSet,
    k_neighbors: int = 10,
    residual_floor: float = RESIDUAL_FLOOR,
    scale: float = 1.0,
) -> AlphaAssignment:
    """Per-node inverse-variance trust from log-residual regression.

    For each labeler, the log squared residual ``log((vote - y)^2 + floor)``
    on labeled cast votes is carried to every node by k-nearest-neighbor
    averaging in feature space, and the trust is the inverse of the
    exponentiated estimate (capped at ``scale / floor``). ``scale`` is an
    overall multiplier absorbing the smoothness-field coupling constant of
    the underlying probabilistic model. A labeler with no cast vote on any
    labeled node falls back to its Laplace-estimated accuracy and is recorded
    in ``fallback_labelers``.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be positive")
    if not (scale > 0) or not np.isfinite(scale):
        raise ValueError("scale must be positive and finite")
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != votes.node_count:
        raise ValueError("features must be (node_count, d)")
    labels.validate_against(votes.node_count)
    acc = estimate_accuracy_from_labeled(votes, labels)
    n, k = votes.votes.shape
    a = np.zeros((n, k))
    fallback = []
    for j in range(k):
        cast_lab = votes.votes[labels.indices, j] != ABSTAIN
        support = labels.indices[cast_lab]
        if support.size == 0:
            fallback.append(j)
            a[:, j] = votes.cast_mask[:, j] * (scale * acc.p[j])
            continue
        resid = (votes.votes[support, j] - labels.values[cast_lab]) ** 2
        log_resid = np.log(resid.astype(np.float64) + residual_floor)
        d = np.sqrt(((x[:, None, :] - x[support][None, :, :]) ** 2).sum(axis=2))
        kk = min(k_neighbors, support.size)
        # stable argsort keeps the lowest support index on distance ties
        nearest = np.argsort(d, axis=1, kind="stable")[:, :kk]
        g = log_resid[nearest].mean(axis=1)
        a[:, j] = votes.cast_mask[:, j] * (scale / np.exp(g))
    return AlphaAssignment(alpha=a, scheme="probabilistic", fallback_labelers=tuple(fallback))

