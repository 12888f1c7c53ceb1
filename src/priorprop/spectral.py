"""Laplacian spectrum diagnostics and the sample-complexity style bound.

The bound compares the empirical squared error on the labeled sample with the
squared error over all nodes for the soft-constrained solution, in terms of
the Laplacian's second smallest eigenvalue. It has one form: the hypothesis
constants ``(t, M, K)`` (label multiplicity, label magnitude, score
magnitude) are 1, because the inputs fix them there (see
:func:`spectral_bound`). A :class:`SpectralReport` stores the bound's inputs
and derives ``beta`` and the bound from them.

The eigenvalue ``lambda_2`` of a connected graph takes one of three routes:

* below ``solver.DENSE_LIMIT`` nodes, where the solver's systems are dense
  too, a dense symmetric eigensolve;
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

The bound needs ``lambda_2`` and the soft solution at ``eta`` of one graph,
and :func:`spectral_bound` makes one sparse factor for both where that
pays. It computes ``lambda_2`` first, by the route above. On the
shift-invert route the factor of ``L - sigma I`` then preconditions CG on
the soft system, which differs from it by the labels' diagonal and the
shift, wherever ``eta / 2 <= R`` or the solver's gate would factor the soft
system itself. Elsewhere, and where CG's answer is rejected, the soft solve
takes its own route. Every factor is made afresh by
:func:`priorprop.solver.factor_spd` and freed when the call returns, so no
result depends on what was computed on the graph before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from priorprop import solver
from priorprop.graph import Graph, LabelSet, _as_truth
from priorprop.solver import PriorField, solve_soft

EIG_TOL = 1e-9
# the CG steps of a soft solve preconditioned by lambda_2's factor; at
# eta / 2 <= R it took 5-26 on the graphs measured (2-D geometric graphs,
# grids, paths and rings of 2k-12k nodes, 0.2-100% of them labeled), and
# 12-22 above it where the solver's gate factors the soft system
SHARED_CG_STEPS = 50


def laplacian(graph: Graph) -> sp.csr_matrix:
    """Combinatorial Laplacian D - W."""
    return (sp.diags(graph.degrees) - graph.matrix).tocsr()


def second_smallest_eigenvalue(graph: Graph) -> float:
    """Second smallest eigenvalue of the Laplacian.

    Exactly 0.0 for a disconnected graph (the zero eigenvalue has higher
    multiplicity). Dense symmetric solve below ``solver.DENSE_LIMIT`` nodes;
    above that, shift-invert Lanczos when the O(nnz) graph test
    :func:`~priorprop.solver.factor_is_cheap` finds the sparse factor cheap,
    and otherwise Lanczos on the Laplacian with the constant vector deflated
    by a rank-one shift. Both sparse routes converge to ``EIG_TOL``.
    """
    return _lambda2(graph, laplacian(graph))[0]


def _lambda2(
    graph: Graph, lap: sp.csr_matrix
) -> tuple[float, Callable[[np.ndarray], np.ndarray] | None]:
    """``lambda_2`` of ``graph``, whose Laplacian is ``lap``, and on the
    shift-invert route the solve ``b -> (L - sigma I)^-1 b`` by its factor;
    None on every other route."""
    if graph.node_count < 2:
        raise ValueError("need at least two nodes")
    if int(graph.component_of.max()) > 0:
        return 0.0, None
    if graph.node_count < solver.DENSE_LIMIT:
        return float(scipy.linalg.eigvalsh(lap.toarray())[1]), None
    if solver.factor_is_cheap(graph):
        return _shift_invert(graph, lap)
    return _lanczos(graph, lap), None


def _shift_invert(
    graph: Graph, lap: sp.csr_matrix
) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """``lambda_2`` as ``sigma + 1 / mu`` for the top eigenvalue ``mu`` of
    ``(L - sigma I)^-1`` with the constant vector projected out, and the
    solve ``b -> (L - sigma I)^-1 b`` by the factor it made.

    ``sigma = -1e-3 R`` is negative, so ``L - sigma I`` is positive definite,
    and it scales with the weights, so the route is scale-free. The matrix is
    strictly diagonally dominant, so its factor's pivots are not checked.
    """
    n = lap.shape[0]
    sigma = -1e-3 * graph.rcm_profile[1]
    solve = solver.factor_spd(lap + sp.diags(np.full(n, -sigma))).solve

    def matvec(x):
        y = solve(x)
        return y - y.mean()

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    v0 -= v0.mean()
    vals = spla.eigsh(op, k=1, which="LA", tol=EIG_TOL, v0=v0, return_eigenvectors=False)
    return float(1.0 / vals[0] + sigma), solve


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
    labels: LabelSet,
    true_labels_full,
    eta: float,
    delta_conf: float = 0.1,
) -> SpectralReport:
    """Evaluate the spectral generalization bound for the soft solution at ``eta``.

    The errors are those of the scores of ``solve_soft(graph, labels, eta)``
    under the default solver configuration, within its tolerances (see
    :func:`_soft_scores_and_lambda`). The hypothesis constants ``(t, M, K)``
    are 1 for every accepted input: a :class:`LabelSet` labels a node at most
    once (t), labels are 0 or 1 (M), and the soft scores lie in [0, 1] (K;
    the solvers clip them). When ``lambda1 <= eta`` the bound is infinite.
    """
    prior = solver._soft_prior(graph, labels, eta)  # checks eta and the labels
    delta = float(delta_conf)
    if not (0 < delta < 1):
        raise ValueError("delta_conf must lie in (0, 1)")
    n = len(labels)
    if n < 4:
        raise ValueError("the bound requires at least 4 labeled points")
    y = _as_truth(true_labels_full, graph.node_count)
    eta = float(eta)
    f, lambda1 = _soft_scores_and_lambda(graph, labels, eta, prior)
    r_emp = float(np.mean((f[labels.indices] - labels.values.astype(np.float64)) ** 2))
    r_gen = float(np.mean((f - y) ** 2))
    return SpectralReport(
        lambda1=lambda1,
        eta=eta,
        n_labeled=n,
        delta_conf=delta,
        empirical_error=r_emp,
        generalization_error=r_gen,
    )


def _soft_scores_and_lambda(
    graph: Graph, labels: LabelSet, eta: float, prior: PriorField
) -> tuple[np.ndarray, float]:
    """The soft solution's scores and ``lambda_2``, from one sparse factor
    where it can serve both.

    ``lambda_2`` comes first. On its shift-invert route, the factor of
    ``F = L - sigma I`` preconditions CG on the soft system
    ``S = L + diag(mu)`` where ``eta / 2 <= R``, or where the solver's gate
    (:func:`~priorprop.solver._factor_pays`, with every node unknown) would
    factor ``S``. ``S - F = diag(mu) + sigma I`` is the labels' diagonal
    plus a shift that is small beside every eigenvalue of ``F`` but the
    constant vector's. At ``eta / 2 <= R`` that diagonal is at most ``R``,
    and where the gate factors ``S`` the labels' total weight is small
    beside the graph's (``rho_1 <= R / d_max``), so ``F^-1 S`` stays close
    to the identity and CG needs few steps. Its answer is kept under the
    solver's CG acceptance rule, within ``SHARED_CG_STEPS`` steps.
    Otherwise, and outside both cases, :func:`~priorprop.solver.solve_soft`
    solves ``S`` by its own route, whose factor, if it makes one, has its
    pivots checked. Outside both cases that route is Jacobi-PCG or a dense
    solve, where the shared CG was no faster or, at a large ``eta``, stopped
    unaccepted.
    """
    lap = laplacian(graph)
    lambda1, solve = _lambda2(graph, lap)
    n = graph.node_count
    if solve is not None and (
        eta / 2.0 <= graph.rcm_profile[1]
        or solver._factor_pays(graph, prior.mu, np.arange(n), graph.degrees + prior.mu)
    ):
        soft = (lap + sp.diags(prior.mu)).tocsr()
        x, _ = solver._accepted_pcg(soft, prior.mu * prior.h, solve, SHARED_CG_STEPS)
        if x is not None:
            return np.clip(x, 0.0, 1.0), lambda1
    return solve_soft(graph, labels, eta).f, lambda1
