"""Forward Gauss-Seidel sweeps of the weighted-neighbor-average update.

Updating the nodes of ``order`` one after another, each from the newest value
of every neighbor, is one lower-triangular solve over those nodes:

    (diag(denom) - L) f[order] = base + R f

``L`` holds the weights to neighbors earlier in ``order``; ``R`` holds all
other weights (to neighbors later in ``order`` or outside it, and any
self-loop), read at their values before the sweep. The solve is exact for any
``order``.

The split depends only on the graph, ``order`` and ``denom``, so a solve
builds it once with :func:`gs_split`: the SuperLU factor of
``diag(denom) - L`` in natural order with diagonal pivots (a lower-triangular
matrix with a positive diagonal factors with no fill and no pivoting) and
``R`` as a CSR matrix. Each :func:`gs_sweep` is then one ``R`` product, one
triangular solve, and one more ``R`` product for the residual it returns.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

BACKEND = "superlu-split"


@dataclass(frozen=True, eq=False)
class GaussSeidelSplit:
    """``lu``: SuperLU factor of ``diag(denom) - L``; ``rest``: ``R``, one row
    per node of ``order`` and one column per graph node; ``denom`` as given."""

    lu: spla.SuperLU
    rest: sp.csr_array
    denom: np.ndarray


def gs_split(indptr, indices, weights, order, denom) -> GaussSeidelSplit:
    """The split of the CSR graph ``(indptr, indices, weights)`` for sweeps
    over the distinct nodes ``order``, with ``denom`` aligned with ``order``."""
    n, m = indptr.size - 1, order.size
    rows = sp.csr_array((weights, indices, indptr), shape=(n, n))[order]
    row = np.repeat(np.arange(m), np.diff(rows.indptr))
    pos = np.full(n, m)  # position in order; m for nodes outside it
    pos[order] = np.arange(m)
    col = pos[rows.indices]
    earlier = col < row
    rest = ~earlier
    k = np.arange(m)
    lower = sp.csc_array(
        (
            np.concatenate([denom, -rows.data[earlier]]),
            (np.concatenate([k, row[earlier]]), np.concatenate([k, col[earlier]])),
        ),
        shape=(m, m),
    )
    lu = spla.splu(lower, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    r = sp.csr_array((rows.data[rest], (row[rest], rows.indices[rest])), shape=(m, n))
    return GaussSeidelSplit(lu, r, denom)


def gs_sweep(f, indptr, split, base, order) -> float:
    """One in-place sweep of f[i] <- (sum_j w_ij f[j] + base) / denom.

    ``split`` comes from :func:`gs_split` for the graph whose row pointer is
    ``indptr`` and for this ``order``; ``base`` is aligned with ``order``.
    Nodes outside ``order`` keep their values. Returns the fixed-point
    residual over ``order`` after the sweep: each swept node meets its update
    exactly in the new ``L`` terms, so only the ``R`` terms moved, and the
    residual is ``max |R (f_before - f_after)| / denom``.
    """
    if split.rest.shape != (order.size, indptr.size - 1):
        raise ValueError("split was built for another graph or order")
    new = split.lu.solve(base + split.rest @ f)
    change = np.zeros(f.size)
    change[order] = f[order] - new
    f[order] = new
    return float(np.max(np.abs(split.rest @ change) / split.denom, initial=0.0))


__all__ = ["GaussSeidelSplit", "gs_split", "gs_sweep", "BACKEND"]
