"""Fusing several abstaining binary labelers into label propagation.

Each labeler votes ``0``/``1`` or abstains (encoded ``-1``). The trust weights
``alpha``, a plain ``(node_count, k)`` float array that each ``alpha_*``
scheme returns, say how strongly each cast vote pulls its node. The paper
attaches the labelers to the graph as hard-labeled class anchors, one per
labeler and class, with each cast vote wired to the anchor of its class at
weight ``alpha``. That problem has the same minimizers as one prior on the
base graph, ``h = weighted vote average`` and ``mu = total alpha`` per node,
so :func:`reduce_to_single_prior`, the one consumer of ``alpha`` and the one
place it is validated, builds that prior and
:func:`priorprop.solver.solve_with_prior` solves it. :func:`vote_prior` picks
the trust scheme by name and builds that prior in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from priorprop.graph import LabelSet, _as_truth, _check_feature_span
from priorprop.solver import PriorField, _check_count

ABSTAIN = -1

ALPHA_SCHEMES = ("accuracy", "boosting", "probabilistic", "constant", "oracle")

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


def reduce_to_single_prior(votes: WeakVoteMatrix, alpha: np.ndarray) -> PriorField:
    """Collapse weighted votes into one prior: h = weighted mean, mu = total weight.

    ``alpha`` must have the shape of the votes, be finite and non-negative,
    and be zero wherever the labeler abstained; each node's total must be
    finite, and the ``ValueError`` names the first node whose total is not.
    Nodes where every labeler abstained (or all weights are zero) get
    ``h = 0.5, mu = 0`` - no prior influence.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != votes.votes.shape:
        raise ValueError("alpha shape does not match votes")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValueError("alpha must be finite and non-negative")
    if np.any(a[~votes.cast_mask] > 0):
        raise ValueError("alpha must be zero wherever the labeler abstained")
    cast_votes = np.where(votes.cast_mask, votes.votes, 0).astype(np.float64)
    with np.errstate(over="ignore"):
        total = a.sum(axis=1)
    overflowed = np.flatnonzero(~np.isfinite(total))
    if overflowed.size:
        raise ValueError(f"the trust total of node {int(overflowed[0])} is not finite")
    weighted = (a * cast_votes).sum(axis=1)
    h = np.full(votes.node_count, 0.5)
    supported = total > 0
    h[supported] = weighted[supported] / total[supported]
    return PriorField(np.clip(h, 0.0, 1.0), total)


def alpha_oracle(votes: WeakVoteMatrix, true_labels: Sequence[int]) -> np.ndarray:
    """Full trust on correct votes, none on wrong ones (analysis mode only)."""
    y = _as_truth(true_labels, votes.node_count)
    return (votes.cast_mask & (votes.votes == y[:, None])).astype(np.float64)


def alpha_accuracy(votes: WeakVoteMatrix, acc: LabelerAccuracy) -> np.ndarray:
    """Constant per-labeler trust equal to its estimated accuracy."""
    if acc.p.size != votes.labeler_count:
        raise ValueError("accuracy vector does not match labeler count")
    return votes.cast_mask * acc.p[None, :]


def alpha_boosting(votes: WeakVoteMatrix, acc: LabelerAccuracy) -> np.ndarray:
    """Log-odds trust ``ln(p / (1-p))``, floored at zero.

    Accuracies are clipped to [0.01, 0.99] before the log-odds so the weights
    stay finite.
    """
    if acc.p.size != votes.labeler_count:
        raise ValueError("accuracy vector does not match labeler count")
    p = np.clip(acc.p, *ACCURACY_CLIP)
    return votes.cast_mask * np.maximum(0.0, np.log(p / (1.0 - p)))[None, :]


def alpha_constant(votes: WeakVoteMatrix, value: float = 1.0) -> np.ndarray:
    """The same fixed trust on every cast vote."""
    return votes.cast_mask * float(value)


def estimate_accuracy_from_labeled(
    votes: WeakVoteMatrix, labels: LabelSet
) -> LabelerAccuracy:
    """Laplace-smoothed accuracy of each labeler on the labeled nodes.

    ``p_j = (correct + 1) / (cast + 2)``; a labeler that never votes on a
    labeled node gets 0.5. A labeled index off the votes' nodes raises.
    """
    labels.validate_against(votes.node_count)
    sub = votes.votes[labels.indices]
    cast = sub != ABSTAIN
    correct = cast & (sub == labels.values[:, None])
    p = (correct.sum(axis=0) + 1.0) / (cast.sum(axis=0) + 2.0)
    return LabelerAccuracy(p)


def _knn_mean(x: np.ndarray, points: np.ndarray, values: np.ndarray, kk: int) -> np.ndarray:
    """Mean of ``values`` over each row of ``x``'s ``kk`` nearest ``points``.

    Neighbours rank by distance, the lower point index first on ties, with
    each distance summed as ``np.sum`` sums the squared differences. A kd-tree
    proposes ``kk + 4`` candidates per row. A row is settled when its
    ``kk``-th exact distance is clearly below the farthest candidate's, so
    that no other point can rank among its ``kk`` nearest; the other rows are
    asked again for twice as many candidates. Memory is O(N·kk), not O(N·S).
    The kd-tree module, ``scipy.spatial``, loads on the first call, so
    importing the package does not pay for it.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    g = np.empty(x.shape[0])
    rows = np.arange(x.shape[0])
    kq = min(points.shape[0], kk + 4)
    while rows.size:
        far, idx = tree.query(x[rows], kq)
        far, idx = far.reshape(rows.size, kq)[:, -1], idx.reshape(rows.size, kq)
        d = np.sqrt(((x[rows, None, :] - points[idx]) ** 2).sum(axis=2))
        order = np.lexsort((idx, d), axis=1)
        nearest = np.take_along_axis(idx, order[:, :kk], axis=1)
        kth = np.take_along_axis(d, order[:, kk - 1 : kk], axis=1)[:, 0]
        settled = (kth * (1 + 1e-9) < far * (1 - 1e-9)) | (kq == points.shape[0])
        g[rows[settled]] = values[nearest[settled]].mean(axis=1)
        rows = rows[~settled]
        kq = min(points.shape[0], 2 * kq)
    return g


def alpha_probabilistic(
    votes: WeakVoteMatrix,
    features: np.ndarray,
    labels: LabelSet,
    k_neighbors: int = 10,
) -> np.ndarray:
    """Per-node inverse-variance trust from log-residual regression.

    For each labeler, the log squared residual ``log((vote - y)^2 + floor)``
    on labeled cast votes is carried to every node where the labeler voted by
    k-nearest-neighbor averaging in feature space, and the trust is the
    inverse of the exponentiated estimate (capped at ``1 / RESIDUAL_FLOOR``).
    An abstention gets the trust 0 without a neighbor query. A labeler with
    no cast vote on any labeled node trusts each of its votes 0.5, its
    Laplace-estimated accuracy (0 + 1) / (0 + 2). Every feature must be
    finite; the ``ValueError`` names the first node with one that is not, or
    the span of features whose squared distances overflow.
    """
    _check_count("k_neighbors", k_neighbors)
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != votes.node_count:
        raise ValueError("features must be (node_count, d)")
    non_finite = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if non_finite.size:
        raise ValueError(f"node {int(non_finite[0])} has a non-finite feature")
    _check_feature_span(x)
    labels.validate_against(votes.node_count)
    n, k = votes.votes.shape
    a = np.zeros((n, k))
    cast = votes.cast_mask
    for j in range(k):
        voters = np.flatnonzero(cast[:, j])
        cast_lab = cast[labels.indices, j]
        support = labels.indices[cast_lab]
        if support.size == 0:
            a[voters, j] = 0.5
            continue
        resid = (votes.votes[support, j] - labels.values[cast_lab]) ** 2
        log_resid = np.log(resid.astype(np.float64) + RESIDUAL_FLOOR)
        g = _knn_mean(x[voters], x[support], log_resid, min(k_neighbors, support.size))
        a[voters, j] = 1.0 / np.exp(g)
    return a


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
