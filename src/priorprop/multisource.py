"""Fusing several abstaining binary labelers into label propagation.

Each labeler votes ``0``/``1`` or abstains (encoded ``-1``). A per-node,
per-labeler trust weight ``alpha`` says how strongly each cast vote pulls its
node. The paper attaches the labelers to the graph as hard-labeled class
anchors, one per labeler and class, with each cast vote wired to the anchor of
its class at weight ``alpha``. That problem has the same minimizers as one
prior on the base graph, ``h = weighted vote average`` and ``mu = total
alpha`` per node, so :func:`reduce_to_single_prior` builds that prior and
:func:`priorprop.solver.solve_with_prior` solves it. :func:`vote_prior` picks
the trust scheme by name and builds that prior in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from priorprop.graph import LabelSet, _as_truth
from priorprop.solver import PriorField

ABSTAIN = -1

ALPHA_SCHEMES = ("oracle", "accuracy", "boosting", "probabilistic", "constant")

ACCURACY_CLIP = (0.01, 0.99)
RESIDUAL_FLOOR = 1e-4
# entries of the difference tensor one k-NN block may hold (512 KB of float64)
KNN_BLOCK_ELEMENTS = 1 << 16


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
        if not np.all(np.isin(v, (0, 1, ABSTAIN))):
            raise ValueError("votes must be 0, 1 or -1 (abstain)")
        object.__setattr__(self, "votes", v.astype(np.int8))

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


def _check_vote_alpha(votes: WeakVoteMatrix, alpha: AlphaAssignment) -> None:
    if alpha.alpha.shape != votes.votes.shape:
        raise ValueError("alpha shape does not match votes")
    if np.any(alpha.alpha[~votes.cast_mask] > 0):
        raise ValueError("alpha must be zero wherever the labeler abstained")


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
    y = _as_truth(true_labels, votes.node_count)
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


def _knn_mean(x: np.ndarray, points: np.ndarray, values: np.ndarray, kk: int) -> np.ndarray:
    """Mean of ``values`` over each row of ``x``'s ``kk`` nearest ``points``.

    Rows go in blocks of at most ``KNN_BLOCK_ELEMENTS`` entries of the
    row-by-point-by-feature difference tensor, so memory stays bounded
    whatever the node count. Each row's distances, neighbour order and mean
    do not depend on the block it falls in.
    """
    rows = max(1, KNN_BLOCK_ELEMENTS // max(1, points.size))
    g = np.empty(x.shape[0])
    for start in range(0, x.shape[0], rows):
        block = x[start : start + rows]
        d = np.sqrt(((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        # stable argsort keeps the lowest point index on distance ties
        nearest = np.argsort(d, axis=1, kind="stable")[:, :kk]
        g[start : start + rows] = values[nearest].mean(axis=1)
    return g


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
    in ``fallback_labelers``. Every feature must be finite; the ``ValueError``
    names the first node with one that is not.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be positive")
    if not (scale > 0) or not np.isfinite(scale):
        raise ValueError("scale must be positive and finite")
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != votes.node_count:
        raise ValueError("features must be (node_count, d)")
    non_finite = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if non_finite.size:
        raise ValueError(f"node {int(non_finite[0])} has a non-finite feature")
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
        g = _knn_mean(x, x[support], log_resid, min(k_neighbors, support.size))
        a[:, j] = votes.cast_mask[:, j] * (scale / np.exp(g))
    return AlphaAssignment(alpha=a, scheme="probabilistic", fallback_labelers=tuple(fallback))


def vote_prior(
    votes: WeakVoteMatrix,
    scheme: str,
    labels: LabelSet,
    *,
    accuracy: LabelerAccuracy | None = None,
    features: np.ndarray | None = None,
    truth: Sequence[int] | None = None,
    constant: float = 1.0,
    k_neighbors: int = 10,
) -> PriorField:
    """The reduced prior of ``votes`` under the trust scheme named ``scheme``.

    ``accuracy`` feeds the accuracy and boosting schemes; without it they use
    the accuracy estimated on ``labels``. The probabilistic scheme needs
    ``features`` (and uses ``k_neighbors``), the oracle scheme ``truth``, and
    the constant scheme gives every cast vote the weight ``constant``.
    """
    if accuracy is not None and accuracy.p.size != votes.labeler_count:
        raise ValueError("accuracy vector does not match labeler count")
    if scheme in ("accuracy", "boosting"):
        acc = accuracy if accuracy is not None else estimate_accuracy_from_labeled(votes, labels)
        alpha = (alpha_accuracy if scheme == "accuracy" else alpha_boosting)(votes, acc)
    elif scheme == "probabilistic":
        if features is None:
            raise ValueError("the probabilistic scheme requires features")
        alpha = alpha_probabilistic(votes, features, labels, k_neighbors)
    elif scheme == "constant":
        alpha = alpha_constant(votes, constant)
    elif scheme == "oracle":
        if truth is None:
            raise ValueError("the oracle scheme requires the true labels")
        alpha = alpha_oracle(votes, truth)
    else:
        raise ValueError(f"unknown alpha scheme {scheme!r}")
    return reduce_to_single_prior(votes, alpha)
