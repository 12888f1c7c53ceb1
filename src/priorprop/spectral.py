"""Laplacian spectrum diagnostics and the sample-complexity style bound.

The bound compares the empirical squared error on the labeled sample with the
squared error over all nodes for the soft-constrained solution, in terms of
the Laplacian's second smallest eigenvalue. It has one form: the hypothesis
constants ``(t, M, K)`` (label multiplicity, label magnitude, score
magnitude) are 1, because the inputs fix them there (see
:func:`spectral_bound`). A :class:`SpectralReport` stores the bound's inputs
and derives ``beta`` and the bound from them.

The eigenvalue ``lambda_2`` of a connected graph takes one of three routes:

* below ``DENSE_EIG_LIMIT`` nodes, a dense symmetric eigensolve;
* above it, exact shift-invert Lanczos on a sparse LU of ``L - sigma I``
  when :func:`priorprop.solver.factor_is_cheap` finds the factor cheap, and
  plain Lanczos on ``L`` when it does not.

That is the graph test of the solver's one factor-or-Krylov gate, and it
costs O(nnz) once per graph. A reverse Cuthill-McKee ordering gives the
bandwidth ``band``, so ``band**3`` stands for the factor's dense-front work.
The Rayleigh quotient ``R`` of the centred breadth-first hop vector from the
ordering's first node is an upper bound on ``lambda_2``; Lanczos needs about
``sqrt(lambda_max / lambda_2)`` iterations with ``lambda_max <= 2 d_max``, so
``n_edges * sqrt(d_max / R)`` is a lower estimate of its work. Shift-invert
runs when ``band**3 <= FACTOR_GATE * n_edges * sqrt(d_max / R)``: on long,
thin and planar-like graphs (paths, rings, grids, 2-D geometric graphs)
Lanczos crawls and the factor stays small, while on expanders and geometric
graphs of higher dimension the factor fills in and Lanczos converges fast.
The factor goes through :func:`priorprop.solver.spd_solver`, so when a soft
solve over every node of the same graph was factored first, ``L - sigma I``
reuses its minimum-degree order and no second ordering runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from priorprop.graph import Graph, LabelSet, _as_truth
from priorprop.solver import factor_is_cheap, scores, spd_solver

DENSE_EIG_LIMIT = 300
EIG_TOL = 1e-9


def laplacian(graph: Graph) -> sp.csr_matrix:
    """Combinatorial Laplacian D - W."""
    return (sp.diags(graph.degrees) - graph.matrix).tocsr()


def second_smallest_eigenvalue(graph: Graph) -> float:
    """Second smallest eigenvalue of the Laplacian.

    Exactly 0.0 for a disconnected graph (the zero eigenvalue has higher
    multiplicity). Dense symmetric solve below ``DENSE_EIG_LIMIT`` nodes;
    above that, shift-invert Lanczos when the O(nnz) graph test
    :func:`~priorprop.solver.factor_is_cheap` finds the sparse factor cheap,
    and otherwise Lanczos on the Laplacian with the constant vector deflated
    by a rank-one shift. Both sparse routes converge to ``EIG_TOL``.
    """
    n = graph.node_count
    if n < 2:
        raise ValueError("need at least two nodes")
    if int(graph.component_of.max()) > 0:
        return 0.0
    lap = laplacian(graph)
    if n < DENSE_EIG_LIMIT:
        vals = scipy.linalg.eigvalsh(lap.toarray())
        return float(vals[1])
    if factor_is_cheap(graph):
        return _shift_invert(graph, lap)
    return _lanczos(graph, lap)


def _shift_invert(graph: Graph, lap: sp.csr_matrix) -> float:
    """``lambda_2`` as ``sigma + 1 / mu`` for the top eigenvalue ``mu`` of
    ``(L - sigma I)^-1`` with the constant vector projected out.

    ``sigma = -1e-3 R`` is negative, so ``L - sigma I`` is positive definite,
    and it scales with the weights, so the route is scale-free.
    """
    n = lap.shape[0]
    sigma = -1e-3 * graph.rcm_profile[1]
    solve, _ = spd_solver(graph, lap + sp.diags(np.full(n, -sigma)))

    def matvec(x):
        y = solve(x)
        return y - y.mean()

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    v0 -= v0.mean()
    vals = spla.eigsh(op, k=1, which="LA", tol=EIG_TOL, v0=v0, return_eigenvectors=False)
    return float(1.0 / vals[0] + sigma)


def _lanczos(graph: Graph, lap: sp.csr_matrix) -> float:
    """Smallest eigenvalue of ``L + shift * 11^T / n``, which is ``lambda_2``."""
    n = graph.node_count
    # shift the constant eigenvector's eigenvalue above the spectrum's top
    shift = 2.0 * float(graph.degrees.max()) + 1.0
    ones = np.full(n, 1.0 / n)

    def matvec(x):
        return lap @ x + shift * (ones @ x) * np.ones(n)

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    vals = spla.eigsh(op, k=1, which="SA", tol=EIG_TOL, v0=v0, return_eigenvectors=False)
    return float(vals[0])


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Spectral bound inputs; ``beta``, ``bound`` and ``finite`` are derived from them."""

    # the hypothesis constants (t, M, K), which every input spectral_bound accepts fixes at 1
    t: ClassVar[int] = 1
    m_bound: ClassVar[float] = 1.0
    k_bound: ClassVar[float] = 1.0

    lambda1: float
    eta: float
    n_labeled: int
    delta_conf: float
    empirical_error: float
    generalization_error: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.bound)

    @property
    def beta(self) -> float:
        gap = self.lambda1 - self.eta * self.t
        if not gap > 0:
            return math.inf
        r = self.eta / gap  # scale-free: weights and eta scaled together leave r as is
        return 3.0 * r * r * math.sqrt(self.t * self.n_labeled) + 4.0 * r * self.m_bound

    @property
    def bound(self) -> float:
        n, beta = self.n_labeled, self.beta
        # log 2 - log delta, since 2 / delta overflows for a subnormal delta
        deviation = math.sqrt(2.0 * (math.log(2.0) - math.log(self.delta_conf)) / n)
        return beta + deviation * (n * beta + (self.k_bound + self.m_bound) ** 2)

    def to_dict(self) -> dict[str, Any]:
        """Inputs, ``beta``, ``bound``, errors and ``finite``; an infinite bound is None."""
        keys = ("lambda1", "eta", "n_labeled", "delta_conf", "t", "m_bound", "k_bound",
                "beta", "bound", "empirical_error", "generalization_error", "finite")
        values = {key: getattr(self, key) for key in keys}
        return {key: None if value == math.inf else value for key, value in values.items()}


def spectral_bound(
    graph: Graph,
    prediction,
    labels: LabelSet,
    true_labels_full,
    eta: float,
    delta_conf: float = 0.1,
) -> SpectralReport:
    """Evaluate the spectral generalization bound for a soft solution.

    Its hypothesis constants ``(t, M, K)`` are 1 for every accepted input: a
    :class:`LabelSet` labels a node at most once (t), labels are 0 or 1 (M),
    and every score must lie in [0, 1] (K; the solvers clip theirs, and the
    first node outside is named). When ``lambda1 <= eta`` the bound is infinite.
    """
    eta = float(eta)
    delta = float(delta_conf)
    if not (eta > 0) or not math.isfinite(eta):
        raise ValueError("eta must be positive and finite")
    if not (0 < delta < 1):
        raise ValueError("delta_conf must lie in (0, 1)")
    labels.validate_against(graph.node_count)
    n = len(labels)
    if n < 4:
        raise ValueError("the bound requires at least 4 labeled points")

    f = scores(prediction)
    y = _as_truth(true_labels_full, graph.node_count)
    if f.shape != y.shape:
        raise ValueError("prediction must cover every node")
    outside = np.flatnonzero((f < 0) | (f > 1))
    if outside.size:
        i = int(outside[0])
        raise ValueError(f"node {i} has prediction {float(f[i])!r} outside [0, 1]")
    r_emp = float(np.mean((f[labels.indices] - labels.values.astype(np.float64)) ** 2))
    r_gen = float(np.mean((f - y) ** 2))
    return SpectralReport(
        lambda1=second_smallest_eigenvalue(graph),
        eta=eta,
        n_labeled=n,
        delta_conf=delta,
        empirical_error=r_emp,
        generalization_error=r_gen,
    )
