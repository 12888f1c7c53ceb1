"""One forward Gauss-Seidel sweep of the weighted-neighbor-average update.

Updating the nodes of ``order`` one after another, each from the newest value
of every neighbor, is one lower-triangular solve over those nodes:

    (diag(denom) - L) f[order] = base + R f

``L`` holds the weights to neighbors earlier in ``order``; ``R`` holds all
other weights (to neighbors later in ``order`` or outside it, and any
self-loop), read at their values before the sweep. The solve is exact for any
``order``.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

BACKEND = "spsolve_triangular"


def gs_sweep(f, indptr, indices, weights, order, base, denom):
    """One in-place sweep of f[i] <- (sum_j w_ij f[j] + base) / denom.

    ``order`` lists distinct nodes to update, in update order; ``base`` and
    ``denom`` are aligned with ``order``. Nodes outside ``order`` keep their
    values.
    """
    n, m = f.size, order.size
    rows = sp.csr_array((weights, indices, indptr), shape=(n, n))[order]
    row = np.repeat(np.arange(m), np.diff(rows.indptr))
    pos = np.full(n, m)  # position in order; m for nodes outside it
    pos[order] = np.arange(m)
    col = pos[rows.indices]
    earlier = col < row
    rest = ~earlier
    rhs = base + np.bincount(row[rest], rows.data[rest] * f[rows.indices[rest]], minlength=m)
    k = np.arange(m)
    lower = sp.csc_array(
        (
            np.concatenate([denom, -rows.data[earlier]]),
            (np.concatenate([k, row[earlier]]), np.concatenate([k, col[earlier]])),
        ),
        shape=(m, m),
    )
    f[order] = spla.spsolve_triangular(lower, rhs, lower=True)


__all__ = ["gs_sweep", "BACKEND"]
