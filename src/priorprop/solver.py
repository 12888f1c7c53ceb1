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

The direct method solves the symmetric positive-definite system
``A = diag(deg_U + mu_U) - W_UU`` over the unlabeled nodes ``U``, built,
like every system of the package, by :meth:`Graph.system
<priorprop.graph.Graph.system>`. It takes dense Cholesky below
``DENSE_LIMIT`` unknowns; above it, one gate chooses between a sparse LU
factor and Jacobi-preconditioned conjugate gradient. On a
connected graph the factor is used when both of the gate's tests pass:

* the system is nearly singular on the graph's own scale: its constant-vector
  Rayleigh quotient ``rho_1 = 1^T A 1 / sum_U (deg + mu)``, an O(nnz) sum,
  is at most ``R / d_max``; there Jacobi-PCG crawls as Lanczos on the
  Laplacian does;
* the graph's factor is cheap (:func:`factor_is_cheap`, the test that also
  routes ``lambda_2``): ``band**3 <= FACTOR_GATE * n_edges * sqrt(d_max / R)``.

``band`` and the bound ``R >= lambda_2`` come from :attr:`Graph.rcm_profile`,
an O(nnz) reverse Cuthill-McKee pass made once per graph and shared with
``lambda_2``. On a disconnected graph every sparse system goes to CG.

Otherwise Jacobi-preconditioned CG runs. CG is the package's own loop
(:func:`_pcg`), which takes scipy's ``cg`` steps one for one with the
preconditioner it is given, without scipy's per-step operator wrappers, so
its answers are scipy's bit for bit. Its answer is kept only when every
row's residual, scaled by the row's diagonal, is at most ``CG_LIMIT`` and
every unknown lies within ``CG_LIMIT`` of [0, 1], where the exact solution
lies; failing that, the system is factored after all. The spectral bound
applies the same rule to the soft solve that it preconditions with
``lambda_2``'s factor where ``eta / 2 <= R`` or where this gate would factor
the soft system (see :mod:`priorprop.spectral`). Every sparse factor is made by
:func:`factor_spd` in a minimum-degree order of its own, and is freed when
the call that made it returns. A system that Cholesky cannot factor, that
LAPACK finds ill-conditioned even with its diagonal scaled to 1, or whose LU
has a pivot that is not positive, is numerically singular and raises
:class:`SingularSystemError`.
:attr:`Prediction.route` names the path taken and
:attr:`Prediction.iterations` counts its CG steps.

The iterative method applies Gauss-Seidel sweeps of the update in fixed node
order, with the sweep's triangular split built once per solve (see
:mod:`priorprop._kernels`), until the max-norm fixed-point residual ``resid``
that each sweep returns satisfies both ``resid < tolerance`` and
``resid <= 5 * tolerance * (1 - rho)``, with ``rho`` the observed contraction
rate. That certifies an error of about ``5 * tolerance``, not ``tolerance``.

Nodes whose entire connected component carries neither a label nor any prior
weight are indeterminate: they receive 0.5 and are flagged.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from priorprop._kernels import gs_split, gs_sweep
from priorprop.graph import Graph, LabelSet

# sparse solves beat dense ones from about 300 unknowns on the benchmark
# generator's graphs (a dense soft solve still won at 220)
DENSE_LIMIT = 300
# on the benchmark instances CG's scaled residuals reach 1.5e-10, and its
# unknowns leave [0, 1] by at most 4e-11
CG_LIMIT = 1e-8
# band**3 / (n_edges * sqrt(d_max / R)) was at most 110 on the graphs measured
# where the factor won over Lanczos for lambda_2 (2-D geometric graphs of
# degree 8 and 13, 2k-12k nodes) and at least 345 where it lost (degree 30
# and up, 3-D, expanders)
FACTOR_GATE = 150.0

FLAG_OK = 0
FLAG_UNREACHABLE = 1
FLAG_NONCONVERGED = 2
FLAG_NAMES = {FLAG_OK: "ok", FLAG_UNREACHABLE: "unreachable", FLAG_NONCONVERGED: "nonconverged"}
_FLAG_NAME_ARRAY = np.array([FLAG_NAMES[code] for code in range(len(FLAG_NAMES))])


class SingularSystemError(ValueError):
    """The linear system that determines the unlabeled nodes is numerically singular."""


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
    def constant(cls, node_count: int, mu: float = 0.0) -> "PriorField":
        """The neutral prior ``h = 0.5`` at the same weight ``mu`` on every node."""
        return cls(np.full(node_count, 0.5), np.full(node_count, mu))

    @property
    def node_count(self) -> int:
        return int(self.h.size)


def _check_count(name: str, value) -> None:
    """Reject ``value`` unless ``operator.index`` takes it and it is at least 1."""
    if not (hasattr(type(value), "__index__") and operator.index(value) >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class SolverConfig:
    method: str = "direct"
    max_iterations: int = 10_000
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.method not in ("direct", "iterative"):
            raise ValueError(f"unknown method {self.method!r}")
        _check_count("max_iterations", self.max_iterations)
        if not (0 < self.tolerance < np.inf):
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True, eq=False)
class Prediction:
    """Per-node scores plus solver provenance.

    ``node_flags`` holds one of ``ok``/``unreachable``/``nonconverged`` per
    node (see FLAG_* constants); ``residual`` is the final max-norm
    fixed-point residual, for soft solves that of their prior problem.
    ``route`` is the path that solved it: ``dense``, ``pcg``, ``factor``,
    ``pcg+factor`` (CG's answer rejected, then factored) or ``gauss-seidel``.
    ``iterations`` counts the CG steps of ``pcg`` and ``pcg+factor`` and the
    sweeps of ``gauss-seidel``; it is 0 on ``dense`` and ``factor``.
    ``method``, derived when read, is ``iterative`` for ``gauss-seidel`` and
    ``direct`` for every other route.
    """

    f: np.ndarray
    node_flags: np.ndarray
    iterations: int
    residual: float
    route: str

    @property
    def method(self) -> str:
        return "iterative" if self.route == "gauss-seidel" else "direct"

    @property
    def converged(self) -> bool:
        return not (self.node_flags == FLAG_NONCONVERGED).any()

    def flag_names(self) -> list[str]:
        return _FLAG_NAME_ARRAY[self.node_flags].tolist()


def scores(prediction) -> np.ndarray:
    """The scores of a :class:`Prediction`, or bare scores as a float array.

    Every score must be finite; the ``ValueError`` names the first node whose
    score is not.
    """
    f = prediction.f if isinstance(prediction, Prediction) else np.asarray(prediction, float)
    non_finite = np.flatnonzero(~np.isfinite(f))
    if non_finite.size:
        i = int(non_finite[0])
        raise ValueError(f"node {i} has non-finite prediction {float(f.flat[i])!r}")
    return f


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
    nodes receive 0.5 and an ``unreachable`` flag. Scores are clipped to
    [0, 1] to absorb last-ulp solver noise (the true optimum is a convex
    combination of labels and prior values).
    """
    config = config or SolverConfig()
    _validate_inputs(graph, labels, prior)
    n = graph.node_count

    labeled_mask = np.zeros(n, dtype=bool)
    labeled_mask[labels.indices] = True
    indeterminate = _indeterminate_nodes(graph, labels, prior.mu)
    indet_mask = np.zeros(n, dtype=bool)
    indet_mask[indeterminate] = True
    solved = np.flatnonzero(~labeled_mask & ~indet_mask).astype(np.int64)

    f = np.full(n, 0.5)
    f[labels.indices] = labels.values

    iterations = 0
    converged = True
    route = "dense" if config.method == "direct" else "gauss-seidel"
    if solved.size:
        if config.method == "direct":
            f[solved], route, iterations = _direct_solve(graph, labels, prior, solved)
        else:
            iterations, converged = _iterative_solve(graph, labels, prior, config, f, solved)

    np.clip(f, 0.0, 1.0, out=f)
    residual = fixed_point_residual(graph, f, prior, solved)
    flags = np.zeros(n, dtype=np.int8)
    flags[indeterminate] = FLAG_UNREACHABLE
    if not converged:
        flags[solved] = FLAG_NONCONVERGED
    return Prediction(
        f=f, node_flags=flags, iterations=iterations, residual=residual, route=route
    )


def _singular(diag: np.ndarray) -> SingularSystemError:
    return SingularSystemError(
        f"the system of {diag.size} unknowns is numerically singular; its weights "
        f"(weighted degree plus prior weight) span {diag.min():g} to {diag.max():g}"
    )


def factor_spd(a: sp.spmatrix) -> spla.SuperLU:
    """SuperLU factor of a symmetric positive-definite sparse matrix.

    Minimum-degree ordering on the symmetric pattern and diagonal pivots only:
    an SPD matrix needs no pivoting, so the fill is that of the ordering.
    """
    return spla.splu(
        # a is symmetric, so the transpose of a CSR matrix is its CSC form
        # without a copy
        a.T.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def factor_is_cheap(graph: Graph) -> bool:
    """The gate's graph test: a factor over the connected ``graph`` costs
    less than a Krylov method on its Laplacian.

    ``band**3`` stands for the factor's dense-front work and
    ``n_edges * sqrt(d_max / R)`` for Lanczos's: it needs about
    ``sqrt(lambda_max / lambda_2)`` iterations, with ``lambda_max <= 2 d_max``
    and ``R >= lambda_2``. The test costs O(nnz), once per graph.
    """
    band, rayleigh = graph.rcm_profile
    krylov_work = graph.edge_count * math.sqrt(float(graph.degrees.max()) / rayleigh)
    return band**3 <= FACTOR_GATE * krylov_work


def _factor_pays(
    graph: Graph, mu: np.ndarray, solved: np.ndarray, diag: np.ndarray
) -> bool:
    """Both tests of the factor-or-PCG gate for ``diag(diag) - W_UU``. Both
    read the graph's RCM profile, which a disconnected graph does not have."""
    if int(graph.component_of.max()) > 0:
        return False
    outside = np.ones(graph.node_count)
    outside[solved] = 0.0
    # 1^T A 1 summed without cancellation: the prior weight plus the weight
    # of the edges that leave U; a huge prior weight overflows it to a nan
    # rho_1, which fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        rho1 = (mu.sum() + (graph.matrix @ outside)[solved].sum()) / diag.sum()
    return rho1 * float(graph.degrees.max()) <= graph.rcm_profile[1] and factor_is_cheap(graph)


def _direct_solve(
    graph: Graph, labels: LabelSet, prior: PriorField, solved: np.ndarray
) -> tuple[np.ndarray, str, int]:
    """The unknowns on ``solved``, the route that found them and its CG steps."""
    diag = graph.degrees[solved] + prior.mu[solved]
    y_ext = np.zeros(graph.node_count)
    y_ext[labels.indices] = labels.values
    b = prior.mu[solved] * prior.h[solved] + (graph.matrix @ y_ext)[solved]
    a = graph.system(solved, diag)
    if solved.size < DENSE_LIMIT:
        a = a.toarray()
        try:
            with warnings.catch_warnings():
                # LAPACK's ill-conditioning warning is of the unscaled matrix, so
                # a huge prior weight beside unit edges (a soft solve at eta =
                # 1e308) gets a second try with the diagonal scaled to 1; a
                # warning there too means the system is singular in floats
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                try:
                    return scipy.linalg.solve(a, b, assume_a="pos"), "dense", 0
                except scipy.linalg.LinAlgWarning:
                    s = 1.0 / np.sqrt(diag)
                    x = s * scipy.linalg.solve(s[:, None] * a * s, s * b, assume_a="pos")
                    return x, "dense", 0
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
            raise _singular(diag) from exc
    if _factor_pays(graph, prior.mu[solved], solved, diag):
        return _factor_solve(a, b), "factor", 0
    inv_diag = 1.0 / diag
    x, steps = _accepted_pcg(a, diag, b, lambda r: inv_diag * r, 20 * b.size)
    if x is not None:
        return x, "pcg", steps
    return _factor_solve(a, b), "pcg+factor", steps


def _accepted_pcg(
    a: sp.csr_matrix,
    diag: np.ndarray,
    b: np.ndarray,
    precondition: Callable[[np.ndarray], np.ndarray],
    maxiter: int,
) -> tuple[np.ndarray | None, int]:
    """CG's answer to ``a x = b`` to rtol 1e-13 and its steps, for ``a`` of
    diagonal ``diag``; the answer is None unless it passes the acceptance
    rule: every row's residual, scaled by the row's diagonal, at most
    ``CG_LIMIT`` and every unknown within ``CG_LIMIT`` of [0, 1]."""
    # on a system that is singular in floats, CG can stall, overflow, break
    # down into nans or solve it to a point outside [0, 1]; a factor then
    # finds out
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x, info, steps = _pcg(a, b, precondition, 1e-13, maxiter)
        resid = np.max(np.abs(a @ x - b) / diag)
    if info == 0 and resid <= CG_LIMIT and -CG_LIMIT <= x.min() and x.max() <= 1 + CG_LIMIT:
        return x, steps
    return None, steps


def _pcg(
    a: sp.csr_matrix,
    b: np.ndarray,
    precondition: Callable[[np.ndarray], np.ndarray],
    rtol: float,
    maxiter: int,
) -> tuple[np.ndarray, int, int]:
    """Preconditioned CG from ``x = 0``: ``(x, info, steps)``.

    ``precondition(r)`` returns a new array, the preconditioner applied to
    ``r``. Step for step the arithmetic of scipy's ``cg(a, b, rtol=rtol,
    atol=0, maxiter=maxiter, M=LinearOperator(matvec=precondition))``, so
    ``x`` and ``info`` (0 once the residual norm is below ``rtol * |b|``,
    else ``maxiter``) are that call's, bit for bit. ``steps`` counts the
    steps taken. One exception: once the residual norm is not finite, it can
    never fall below the tolerance, so the loop ends there with ``info =
    maxiter``, where scipy takes the rest of its ``maxiter`` steps on nans.
    """
    bnrm2 = math.sqrt(np.dot(b, b))
    # scipy tests |b|, not the tolerance: rtol * |b| can underflow to 0
    if bnrm2 == 0:
        return b, 0, 0
    atol = rtol * bnrm2
    x = np.zeros_like(b)
    r = b.copy()
    p = rho_prev = None
    for step in range(maxiter):
        rnorm = math.sqrt(np.dot(r, r))
        if rnorm < atol:
            return x, 0, step
        if not math.isfinite(rnorm):
            return x, maxiter, step
        z = precondition(r)
        rho = np.dot(r, z)
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = a @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, maxiter


def _factor_solve(a: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    lu = factor_spd(a)
    # the diagonal of U holds the pivots
    if not np.all(lu.U.diagonal() > 0):
        raise _singular(a.diagonal())
    return lu.solve(b)


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
    return solve_with_prior(graph, LabelSet([], []), _soft_prior(graph, labels, eta), config)


def _soft_prior(graph: Graph, labels: LabelSet, eta: float) -> PriorField:
    """The prior of the soft problem: ``h = y`` and ``mu = eta / 2`` on the labels."""
    eta = float(eta)
    if not (eta > 0) or not np.isfinite(eta):
        raise ValueError("eta must be positive and finite")
    if eta / 2.0 == 0:
        raise ValueError(f"eta {eta!r} underflows to 0 when halved into the labels' prior weight")
    labels.validate_against(graph.node_count)
    h = np.full(graph.node_count, 0.5)
    mu = np.zeros(graph.node_count)
    h[labels.indices] = labels.values
    mu[labels.indices] = eta / 2.0
    return PriorField(h, mu)


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
