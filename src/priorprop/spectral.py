"""Laplacian spectrum diagnostics and the sample-complexity style bound.

The bound compares the empirical squared error on the labeled sample with the
squared error over all nodes for the soft-constrained solution, in terms of
the Laplacian's second smallest eigenvalue. The full variant carries the
(multiplicity, label magnitude, score magnitude) parameters ``(t, M, K)``; the
simplified variant is ``t = M = K = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from priorprop.graph import Graph, LabelSet, _as_truth
from priorprop.solver import scores

DENSE_EIG_LIMIT = 2000
EIG_TOL = 1e-9


def laplacian(graph: Graph) -> sp.csr_matrix:
    """Combinatorial Laplacian D - W."""
    return (sp.diags(graph.degrees) - graph.matrix).tocsr()


def second_smallest_eigenvalue(graph: Graph) -> float:
    """Second smallest eigenvalue of the Laplacian.

    Exactly 0.0 for a disconnected graph (the zero eigenvalue has higher
    multiplicity). Dense symmetric solve below ``DENSE_EIG_LIMIT`` nodes;
    above that, Lanczos on the Laplacian with the constant vector deflated by
    a rank-one shift.
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
    """Spectral bound ingredients; ``finite`` is False when the gap closes."""

    lambda1: float
    eta: float
    n_labeled: int
    delta_conf: float
    t: int
    m_bound: float
    k_bound: float
    beta: float
    bound: float
    empirical_error: float
    generalization_error: float
    finite: bool

    def to_dict(self) -> dict[str, Any]:
        """Every field in declaration order; a non-finite ``beta`` or ``bound`` is None."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("beta", "bound"):
            if not math.isfinite(out[name]):
                out[name] = None
        return out


def spectral_bound(
    graph: Graph,
    prediction,
    labels: LabelSet,
    true_labels_full,
    eta: float,
    delta_conf: float = 0.1,
    full_params: tuple[int, float, float] | None = None,
) -> SpectralReport:
    """Evaluate the spectral generalization bound for a soft solution.

    ``full_params = (t, M, K)`` selects the full variant; omitted, the
    simplified ``t = M = K = 1`` form is used (its deviation term is then
    ``(K + M)^2 = 4``). When ``lambda1 <= eta * t`` the bound is reported as
    infinite with ``finite=False``.
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
    t, m_bound, k_bound = (1, 1.0, 1.0) if full_params is None else full_params
    # an integral t is checked before int(), which truncates 1.5 and overflows on inf
    t_ok = math.isfinite(t) and t == math.trunc(t) and t >= 1
    if not t_ok or not (0 < m_bound < math.inf) or not (0 < k_bound < math.inf):
        raise ValueError("full parameters (t, M, K) must be positive and finite, t an integer")
    t = int(t)

    f = scores(prediction)
    y = _as_truth(true_labels_full, graph.node_count)
    if f.shape != y.shape:
        raise ValueError("prediction must cover every node")
    r_emp = float(np.mean((f[labels.indices] - labels.values.astype(np.float64)) ** 2))
    r_gen = float(np.mean((f - y) ** 2))

    lam1 = second_smallest_eigenvalue(graph)
    gap = lam1 - eta * t
    if gap <= 0:
        beta = math.inf
        bound = math.inf
        finite = False
    else:
        beta = 3.0 * eta**2 * math.sqrt(t * n) / gap**2 + 4.0 * eta * m_bound / gap
        bound = beta + math.sqrt(2.0 * math.log(2.0 / delta) / n) * (
            n * beta + (k_bound + m_bound) ** 2
        )
        finite = True
    return SpectralReport(
        lambda1=lam1,
        eta=eta,
        n_labeled=n,
        delta_conf=delta,
        t=t,
        m_bound=float(m_bound),
        k_bound=float(k_bound),
        beta=beta,
        bound=bound,
        empirical_error=r_emp,
        generalization_error=r_gen,
        finite=finite,
    )
