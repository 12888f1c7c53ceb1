"""Quadratic label-propagation solvers.

All hard-constrained variants minimize

    sum_{edges {i,j}} w_ij (f_i - f_j)^2  +  sum_i mu_i (f_i - h_i)^2

subject to ``f_i = y_i`` on labeled nodes, whose stationarity condition is the
weighted-neighbor-average update

    f_i = (sum_j w_ij f_j + mu_i h_i) / (sum_j w_ij + mu_i).

The soft-constrained variant, which penalizes labels with weight ``eta``
instead of fixing them, is the same problem with no hard labels, ``h = y`` and
``mu = eta / 2`` on the labeled nodes (see :func:`solve_soft`); its reported
residual is therefore the fixed-point residual too.

The direct method solves the symmetric positive-definite system over the
unlabeled nodes (dense Cholesky below ``DENSE_LIMIT`` unknowns, Jacobi
preconditioned conjugate gradient above, sparse LU if CG fails); the
iterative method applies Gauss-Seidel sweeps of the update in fixed node order,
with the sweep's triangular split built once per solve (see
:mod:`priorprop._kernels`), until the max-norm fixed-point residual ``resid``
that each sweep returns satisfies both
``resid < tolerance`` and ``resid <= 5 * tolerance * (1 - rho)``, with ``rho``
the observed contraction rate. That certifies an error of about
``5 * tolerance``, not ``tolerance``.

Nodes whose entire connected component carries neither a label nor any prior
weight are indeterminate: they receive ``unreachable_fill`` and are flagged,
or raise :class:`SingularSystemError` when the fill is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from priorprop._kernels import gs_split, gs_sweep
from priorprop.graph import Graph, LabelSet

DENSE_LIMIT = 500

FLAG_OK = 0
FLAG_UNREACHABLE = 1
FLAG_NONCONVERGED = 2
FLAG_NAMES = {FLAG_OK: "ok", FLAG_UNREACHABLE: "unreachable", FLAG_NONCONVERGED: "nonconverged"}


class SingularSystemError(ValueError):
    """A node's value is not determined by labels, edges or prior weight, or the
    dense system that determines it is numerically singular."""


@dataclass(frozen=True, eq=False)
class PriorField:
    """Per-node prior prediction ``h`` in [0, 1] and pull strength ``mu >= 0``."""

    h: np.ndarray
    mu: np.ndarray

    def __init__(self, h: Sequence[float], mu: Sequence[float]):
        hv = np.asarray(h, dtype=np.float64)
        mv = np.asarray(mu, dtype=np.float64)
        if hv.shape != mv.shape or hv.ndim != 1:
            raise ValueError("h and mu must be 1-D arrays of equal length")
        if not np.all(np.isfinite(hv)) or np.any(hv < 0) or np.any(hv > 1):
            raise ValueError("prior values h must lie in [0, 1]")
        if not np.all(np.isfinite(mv)) or np.any(mv < 0):
            raise ValueError("prior weights mu must be finite and non-negative")
        object.__setattr__(self, "h", hv)
        object.__setattr__(self, "mu", mv)

    @classmethod
    def constant(cls, node_count: int, h: float = 0.5, mu: float = 0.0) -> "PriorField":
        return cls(np.full(node_count, h), np.full(node_count, mu))

    @property
    def node_count(self) -> int:
        return int(self.h.size)


@dataclass(frozen=True, eq=False)
class SolverConfig:
    method: str = "direct"
    max_iterations: int = 10_000
    tolerance: float = 1e-8
    unreachable_fill: float | None = 0.5

    def __post_init__(self):
        if self.method not in ("direct", "iterative"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not (0 < self.tolerance < np.inf):
            raise ValueError("tolerance must be positive and finite")
        if self.unreachable_fill is not None and not (0.0 <= self.unreachable_fill <= 1.0):
            raise ValueError("unreachable_fill must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class Prediction:
    """Per-node scores plus solver provenance.

    ``node_flags`` holds one of ``ok``/``unreachable``/``nonconverged`` per
    node (see FLAG_* constants); ``residual`` is the final max-norm
    fixed-point residual, for soft solves that of their prior problem.
    """

    f: np.ndarray
    node_flags: np.ndarray
    method: str
    iterations: int
    residual: float
    converged: bool

    def flag_names(self) -> list[str]:
        return [FLAG_NAMES[int(c)] for c in self.node_flags]


def scores(prediction) -> np.ndarray:
    """The scores of a :class:`Prediction`, or bare scores as a float array."""
    return prediction.f if isinstance(prediction, Prediction) else np.asarray(prediction, float)


def _validate_inputs(graph: Graph, labels: LabelSet, prior: PriorField) -> None:
    labels.validate_against(graph.node_count)
    if prior.node_count != graph.node_count:
        raise ValueError("prior size does not match graph")
    if len(labels) == 0 and not np.any(prior.mu > 0):
        raise ValueError("at least one labeled node or some prior weight is required")


def _indeterminate_nodes(graph: Graph, labels: LabelSet, mu: np.ndarray) -> np.ndarray:
    """Nodes in components with no label and no prior weight anywhere."""
    comp = graph.component_of
    n_comp = int(comp.max()) + 1 if comp.size else 0
    anchored = np.zeros(n_comp, dtype=bool)
    anchored[comp[labels.indices]] = True
    anchored[comp[mu > 0]] = True
    return np.flatnonzero(~anchored[comp]).astype(np.int64)


def fixed_point_residual(
    graph: Graph, f: np.ndarray, prior: PriorField, nodes: np.ndarray
) -> float:
    """max |f_i - (sum_j w_ij f_j + mu_i h_i) / (deg_i + mu_i)| over ``nodes``."""
    if nodes.size == 0:
        return 0.0
    wf = graph.matrix @ f
    target = (wf[nodes] + prior.mu[nodes] * prior.h[nodes]) / (
        graph.degrees[nodes] + prior.mu[nodes]
    )
    return float(np.max(np.abs(f[nodes] - target)))


def solve_with_prior(
    graph: Graph, labels: LabelSet, prior: PriorField, config: SolverConfig | None = None
) -> Prediction:
    """Minimize the prior-regularized smoothness objective under hard labels.

    Returns the unique minimizer on every node that is determined (reachable
    from a label or carrying prior weight somewhere in its component); other
    nodes get ``config.unreachable_fill`` and an ``unreachable`` flag. Scores
    are clipped to [0, 1] to absorb last-ulp solver noise (the true optimum is
    a convex combination of labels and prior values).
    """
    config = config or SolverConfig()
    _validate_inputs(graph, labels, prior)
    n = graph.node_count

    labeled_mask = np.zeros(n, dtype=bool)
    labeled_mask[labels.indices] = True
    indeterminate = _indeterminate_nodes(graph, labels, prior.mu)
    if indeterminate.size and config.unreachable_fill is None:
        raise SingularSystemError(
            f"nodes {indeterminate.tolist()} have no label, no path to a label and no "
            "prior weight; set unreachable_fill to assign them a value"
        )
    indet_mask = np.zeros(n, dtype=bool)
    indet_mask[indeterminate] = True
    solved = np.flatnonzero(~labeled_mask & ~indet_mask).astype(np.int64)

    f = np.empty(n, dtype=np.float64)
    f[labels.indices] = labels.values.astype(np.float64)
    if indeterminate.size:
        f[indeterminate] = config.unreachable_fill
    f[solved] = 0.5

    iterations = 0
    converged = True
    if solved.size:
        if config.method == "direct":
            f[solved] = _direct_solve(graph, labels, prior, solved)
        else:
            iterations, converged = _iterative_solve(graph, labels, prior, config, f, solved)

    np.clip(f, 0.0, 1.0, out=f)
    residual = fixed_point_residual(graph, f, prior, solved)
    flags = np.zeros(n, dtype=np.int8)
    flags[indeterminate] = FLAG_UNREACHABLE
    if not converged:
        flags[solved] = FLAG_NONCONVERGED
    return Prediction(
        f=f,
        node_flags=flags,
        method=config.method,
        iterations=iterations,
        residual=residual,
        converged=converged,
    )


def _direct_solve(
    graph: Graph, labels: LabelSet, prior: PriorField, solved: np.ndarray
) -> np.ndarray:
    w = graph.matrix
    diag = graph.degrees[solved] + prior.mu[solved]
    y_ext = np.zeros(graph.node_count)
    y_ext[labels.indices] = labels.values
    b = prior.mu[solved] * prior.h[solved] + (w @ y_ext)[solved]
    wuu = w[solved][:, solved]
    if solved.size < DENSE_LIMIT:
        try:
            return scipy.linalg.solve(np.diag(diag) - wuu.toarray(), b, assume_a="pos")
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"the system of {solved.size} unknowns is numerically singular; its weights "
                f"(weighted degree plus prior weight) span {diag.min():g} to {diag.max():g}"
            ) from exc
    a = (sp.diags(diag) - wuu).tocsr()
    x, info = spla.cg(a, b, rtol=1e-13, atol=0.0, maxiter=20 * b.size, M=sp.diags(1.0 / diag))
    if info != 0:
        # fall back to a sparse LU factorization rather than return a bad iterate
        x = spla.splu(a.tocsc()).solve(b)
    return x


def _iterative_solve(
    graph: Graph,
    labels: LabelSet,
    prior: PriorField,
    config: SolverConfig,
    f: np.ndarray,
    solved: np.ndarray,
) -> tuple[int, bool]:
    base = prior.mu[solved] * prior.h[solved]
    denom = graph.degrees[solved] + prior.mu[solved]
    split = gs_split(graph.indptr, graph.indices, graph.weights, solved, denom)
    iterations = 0
    prev = None
    ratios: list[float] = []
    for iterations in range(1, config.max_iterations + 1):
        resid = gs_sweep(f, graph.indptr, split, base, solved)
        if prev is not None and prev > 0:
            ratios = (ratios + [resid / prev])[-3:]
        prev = resid
        if resid < config.tolerance:
            # certify the error, not just the residual: with contraction rate
            # rho the distance to the fixed point is about resid / (1 - rho)
            rho = min(max(max(ratios, default=0.0), 0.0), 1.0 - 1e-6)
            if resid <= 5.0 * config.tolerance * (1.0 - rho):
                return iterations, True
    return iterations, False


def solve_standard(
    graph: Graph, labels: LabelSet, config: SolverConfig | None = None
) -> Prediction:
    """Plain label propagation: no prior (h = 0.5, mu = 0 everywhere)."""
    return solve_with_prior(graph, labels, PriorField.constant(graph.node_count), config)


def solve_soft(
    graph: Graph, labels: LabelSet, eta: float, config: SolverConfig | None = None
) -> Prediction:
    """Soft-constrained propagation: labels are penalized, not fixed.

    Minimizes ``sum_ij w_ij (f_i - f_j)^2 + eta * sum_labeled (f_i - y_i)^2``
    (the smoothness sum running over ordered pairs) over all of R^n. That is
    twice the prior objective with no hard labels, ``h = y`` and
    ``mu = eta / 2`` on the labeled nodes, so it is solved as that problem.
    Connected components with no labeled node carry no prior weight and get
    the ``unreachable`` fill.
    """
    eta = float(eta)
    if not (eta > 0) or not np.isfinite(eta):
        raise ValueError("eta must be positive and finite")
    labels.validate_against(graph.node_count)
    h = np.full(graph.node_count, 0.5)
    mu = np.zeros(graph.node_count)
    h[labels.indices] = labels.values
    mu[labels.indices] = eta / 2.0
    return solve_with_prior(graph, LabelSet([], []), PriorField(h, mu), config)


def objective_value(
    graph: Graph, labels: LabelSet, prior: PriorField, f: np.ndarray
) -> float:
    """Value of the prior-regularized objective at ``f``.

    Each undirected edge contributes ``w_ij (f_i - f_j)^2`` once and each node
    ``mu_i (f_i - h_i)^2``; this is the quantity the solvers minimize. Raises
    if ``f`` violates the hard constraints on labeled nodes.
    """
    fv = np.asarray(f, dtype=np.float64)
    _validate_inputs(graph, labels, prior)
    if fv.shape != (graph.node_count,):
        raise ValueError("f has wrong length")
    if np.any(fv[labels.indices] != labels.values):
        raise ValueError("f violates the hard label constraints")
    rows, cols, w = graph._upper_triangle()
    diffs = fv[rows] - fv[cols]
    smooth = float(np.sum(w * diffs * diffs))
    pull = float(np.sum(prior.mu * (fv - prior.h) ** 2))
    return smooth + pull
