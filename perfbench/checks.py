"""Reference answers and output checks, independent of the priorprop package.

References are computed once per instance from the generated arrays, with
plain scipy, and never inside a timed region. Each ``check_*`` function
returns ``None`` for a correct output and a one-line reason otherwise.

The reduced-prior system is the paper's equivalent of the dongle (anchor
node) route that ``propagate --votes`` solves: labeler ``j`` gets the trust
``p_j = (correct_j + 1) / (cast_j + 2)`` measured on the labeled nodes, and
each node's prior is ``h = sum alpha v / sum alpha`` with pull
``mu = sum alpha`` over its cast votes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import dijkstra

from instances import ABSTAIN, Instance

PROPAGATE_TOL = 1e-6
SOLVER_TOL = 1e-8
LAMBDA_RTOL = 1e-6
HOP_ERROR_TOL = 1e-6
ACCURACY_TOL = 1e-9


def reduced_prior(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Prior ``(h, mu)`` of the accuracy trust scheme, estimated on the labels."""
    cast = inst.votes != ABSTAIN
    lab_votes = inst.votes[inst.label_idx]
    lab_cast = cast[inst.label_idx]
    correct = lab_cast & (lab_votes == inst.truth[inst.label_idx][:, None])
    p = (correct.sum(axis=0) + 1.0) / (lab_cast.sum(axis=0) + 2.0)
    alpha = cast * p[None, :]
    mu = alpha.sum(axis=1)
    weighted = (alpha * np.where(cast, inst.votes, 0)).sum(axis=1)
    h = np.full(inst.nodes, 0.5)
    h[mu > 0] = weighted[mu > 0] / mu[mu > 0]
    return np.clip(h, 0.0, 1.0), mu


def _reduced_system(inst: Instance):
    """``A f_free = b``: the stationarity condition on the unlabeled nodes."""
    h, mu = reduced_prior(inst)
    w = inst.adjacency()
    labeled = np.zeros(inst.nodes, dtype=bool)
    labeled[inst.label_idx] = True
    free = np.flatnonzero(~labeled)
    f = np.where(labeled, inst.truth, 0).astype(np.float64)
    degree = np.asarray(w.sum(axis=1)).ravel()
    a = (sp.diags(degree[free] + mu[free]) - w[free][:, free]).tocsr()
    b = mu[free] * h[free] + (w @ f)[free]
    return a, b, free, f


def reference_solution(inst: Instance) -> np.ndarray:
    """Exact minimizer of the reduced-prior objective by sparse LU (``spsolve``)."""
    a, b, free, f = _reduced_system(inst)
    f[free] = spla.spsolve(a.tocsc(), b)
    return f


def hop_of(inst: Instance) -> np.ndarray:
    """Hop distance of every node from the labeled set (-1 if unreachable)."""
    dist = dijkstra(
        inst.adjacency(), directed=False, unweighted=True, indices=inst.label_idx, min_only=True
    )
    return np.where(np.isfinite(dist), dist, -1).astype(np.int64)


def reference_lambda1(inst: Instance) -> float:
    """Second smallest Laplacian eigenvalue: the two eigenvalues nearest a
    small negative shift, by shift-invert Lanczos on a sparse LU, with no
    deflation of the constant vector (the program runs plain Lanczos on the
    deflated Laplacian instead)."""
    w = inst.adjacency()
    lap = (sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w).tocsc()
    v0 = np.random.default_rng(1).standard_normal(inst.nodes)
    vals = spla.eigsh(lap, k=2, sigma=-1e-3, which="LM", v0=v0, return_eigenvectors=False)
    return float(np.sort(vals)[1])


def analyze_reference(inst: Instance) -> dict:
    """Per-hop error totals of the exact solution, and lambda1."""
    err = np.abs(reference_solution(inst) - inst.truth)
    hops = hop_of(inst)
    top = int(hops.max())
    return {
        "hop_size": np.bincount(hops[hops >= 0], minlength=top + 1),
        "hop_error": np.bincount(hops[hops >= 0], weights=err[hops >= 0], minlength=top + 1),
        "lambda1": reference_lambda1(inst),
    }


def check_propagate(f: np.ndarray, ref_f: np.ndarray) -> str | None:
    if f.shape != ref_f.shape:
        return f"prediction covers {f.size} nodes, expected {ref_f.size}"
    gap = float(np.max(np.abs(f - ref_f)))
    if not gap <= PROPAGATE_TOL:
        return f"max |f - f_ref| = {gap:.3g} exceeds {PROPAGATE_TOL:g}"
    return None


def read_prediction(path) -> np.ndarray:
    """Scores of a ``propagate`` output file (lines ``i f flag``, in node order)."""
    rows = [line.split() for line in open(path, encoding="utf-8").read().splitlines() if line]
    ids = np.array([int(r[0]) for r in rows])
    if not np.array_equal(ids, np.arange(ids.size)):
        return np.full(ids.size, np.nan)
    return np.array([float(r[1]) for r in rows])


def check_analyze(report: dict, ref: dict) -> str | None:
    if report["audit"]["passed"] is not True:
        return "inequality audit failed"
    bound = report["bound_report"]
    if not bound["solver_residual"] <= SOLVER_TOL:
        return f"bound solver residual {bound['solver_residual']:.3g} exceeds {SOLVER_TOL:g}"
    lam, lam_ref = report["spectral_report"]["lambda1"], ref["lambda1"]
    if not abs(lam - lam_ref) <= LAMBDA_RTOL * abs(lam_ref):
        return f"lambda1 {lam!r} differs from reference {lam_ref!r}"
    hops = bound["hops"]
    if len(hops) != ref["hop_size"].size - 1:
        return f"{len(hops)} hops reported, expected {ref['hop_size'].size - 1}"
    for rec in hops:
        k = rec["hop"]
        if rec["size"] != ref["hop_size"][k]:
            return f"hop {k} has {rec['size']} nodes, expected {ref['hop_size'][k]}"
        total = rec["avg_error"] * rec["size"]
        if not abs(total - ref["hop_error"][k]) <= HOP_ERROR_TOL:
            return f"hop {k} error total {total!r} differs from reference {ref['hop_error'][k]!r}"
    return None


def check_demo(report: dict, expected: dict[str, float]) -> str | None:
    got = {r["method"]: r["metrics"]["accuracy"] for r in report["results"]}
    if set(got) != set(expected):
        return f"methods {sorted(got)} differ from {sorted(expected)}"
    for method, acc in expected.items():
        if not (math.isfinite(got[method]) and abs(got[method] - acc) <= ACCURACY_TOL):
            return f"{method} accuracy {got[method]!r} differs from recorded {acc!r}"
    return None
