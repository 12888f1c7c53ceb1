"""Independent brute-force oracles for the test suite.

Everything here is written with naive loops straight from the objective
definitions, deliberately sharing no code with the library, so solver outputs
can be certified against a second route. The exceptions are two second routes
to problems the library solves as prior problems: the anchor graph of a
weak-labeler problem, built here record by record and then solved with the
library's plain solver, and the soft-constrained problem, solved here
component by component in its own penalized form. The ``loop_load_*`` file
readers build the library's own result types from their line-by-line parse,
and ``reference_dumps_json`` writes every JSON leaf with ``json.dumps``.
"""

import json
import math
from collections import deque
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from priorprop.graph import Graph, GraphFormatError, LabelSet
from priorprop.multisource import ABSTAIN, LabelerAccuracy, WeakVoteMatrix
from priorprop.solver import DENSE_LIMIT, FLAG_NAMES, PriorField, solve_with_prior


def naive_prior_objective(edges, h, mu, f):
    """sum over undirected edges w (f_i - f_j)^2 + sum_i mu_i (f_i - h_i)^2."""
    total = 0.0
    for i, j, w in edges:
        total += w * (f[i] - f[j]) ** 2
    for i in range(len(f)):
        total += mu[i] * (f[i] - h[i]) ** 2
    return total


def naive_soft_objective(edges, labeled, eta, f):
    """Ordered-pair smoothness (each edge twice) plus eta-weighted label penalty."""
    total = 0.0
    for i, j, w in edges:
        total += 2.0 * w * (f[i] - f[j]) ** 2
    for i, y in labeled:
        total += eta * (f[i] - y) ** 2
    return total


def naive_multi_objective(edges, votes, alpha, f):
    """Undirected-edge smoothness plus per-cast-vote pull terms."""
    total = 0.0
    for i, j, w in edges:
        total += w * (f[i] - f[j]) ** 2
    n, k = votes.shape
    for i in range(n):
        for j in range(k):
            if votes[i, j] != -1:
                total += alpha[i, j] * (f[i] - votes[i, j]) ** 2
    return total


def anchor_graph(graph, labels, votes, alpha):
    """The paper's anchor ("dongle") graph of a weak-labeler problem.

    Each of the ``k`` labelers gets a class-0 anchor, node ``n + j``, and a
    class-1 anchor, node ``n + k + j``, both hard-labeled. Each cast vote of
    labeler ``j`` on node ``i`` is an edge from ``i`` to the anchor of the
    voted class, weighted ``alpha[i, j]``. Returns the anchor graph and the
    labels of the base and anchor nodes together.
    """
    n, k = votes.votes.shape
    edges = list(graph.edge_list())
    for i in range(n):
        for j in range(k):
            v = int(votes.votes[i, j])
            if v != -1:
                edges.append((i, n + v * k + j, float(alpha[i, j])))
    anchors = np.arange(n, n + 2 * k)
    return Graph.from_edges(n + 2 * k, edges), LabelSet(
        np.concatenate([labels.indices, anchors]),
        np.concatenate([labels.values, np.repeat([0, 1], k)]),
    )


def anchor_graph_solve(graph, labels, votes, alpha, config=None):
    """Scores of the base nodes, solved on the anchor graph with no prior."""
    g, all_labels = anchor_graph(graph, labels, votes, alpha)
    pred = solve_with_prior(g, all_labels, PriorField.constant(g.node_count), config)
    return pred.f[: graph.node_count]


def soft_solve_reference(graph, labels, eta):
    """Soft-constrained scores ``(f, flags)`` solved one labeled component at a time.

    Each component holding a label solves ``(2 D + eta I_L - 2 W) f = eta y``
    (dense below ``DENSE_LIMIT`` nodes, Jacobi-preconditioned CG above); the
    other components get 0.5 and flag 1 (unreachable).
    """
    n = graph.node_count
    comp = graph.component_of
    y_ext = np.zeros(n)
    y_ext[labels.indices] = labels.values
    labeled_mask = np.zeros(n, dtype=bool)
    labeled_mask[labels.indices] = True
    f = np.full(n, 0.5)
    flags = np.ones(n, dtype=np.int8)
    for c in np.unique(comp[labels.indices]):
        idx = np.flatnonzero(comp == c)
        flags[idx] = 0
        wcc = graph.matrix[idx][:, idx]
        diag = 2.0 * graph.degrees[idx] + eta * labeled_mask[idx]
        b = eta * y_ext[idx]
        if idx.size < DENSE_LIMIT:
            f[idx] = scipy.linalg.solve(np.diag(diag) - 2.0 * wcc.toarray(), b, assume_a="pos")
        else:
            a = (sp.diags(diag) - 2.0 * wcc).tocsr()
            x, info = spla.cg(a, b, rtol=1e-13, atol=0.0, maxiter=20 * b.size,
                              M=sp.diags(1.0 / diag))
            assert info == 0
            f[idx] = x
    return np.clip(f, 0.0, 1.0), flags


def minimize_quadratic(objective, dim, x0=None):
    """Exact minimizer of a quadratic via finite differences of the objective.

    Unit-step differences are exact for quadratics: the Hessian entry is
    E(x+ei+ej) - E(x+ei) - E(x+ej) + E(x) and the gradient the central
    difference. Requires a positive-definite Hessian (a determined system).
    """
    x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    e = np.eye(dim)
    base = objective(x0)
    shifted = np.array([objective(x0 + e[i]) for i in range(dim)])
    hess = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                hess[i, i] = objective(x0 + 2 * e[i]) - 2 * shifted[i] + base
            else:
                hess[i, j] = hess[j, i] = (
                    objective(x0 + e[i] + e[j]) - shifted[i] - shifted[j] + base
                )
    grad = np.array(
        [(objective(x0 + e[i]) - objective(x0 - e[i])) / 2.0 for i in range(dim)]
    )
    return x0 - np.linalg.solve(hess, grad)


def random_connected_graph(rng, n, extra_edges=3, w_low=0.05, w_high=2.0):
    """Random spanning tree plus extra random edges; unique (i<j, w) records."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(w_low, w_high))
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key not in edges:
            edges[key] = float(rng.uniform(w_low, w_high))
    return [(i, j, w) for (i, j), w in sorted(edges.items())]


def geometric_graph(n, dim, degree, seed):
    """Connected random geometric graph on the unit torus as ``(m, 3)`` records.

    The radius starts where the expected degree is ``degree`` and grows by 1%
    until the graph is connected; weights are ``exp(-(distance / radius)^2)``.
    """
    points = np.random.default_rng(seed).random((n, dim))
    tree = cKDTree(points, boxsize=1.0)
    ball = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    radius = (degree / (n * ball)) ** (1.0 / dim)
    while True:
        pairs = tree.query_pairs(radius, output_type="ndarray")
        adj = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        if connected_components(adj, directed=False)[0] == 1:
            break
        radius *= 1.01
    diff = np.abs(points[pairs[:, 0]] - points[pairs[:, 1]])
    dist = np.sqrt((np.minimum(diff, 1.0 - diff) ** 2).sum(axis=1))
    return np.column_stack([pairs, np.exp(-((dist / radius) ** 2))])


def random_labels(rng, n, max_labeled=3):
    count = int(rng.integers(1, max_labeled + 1))
    idx = rng.choice(n, size=count, replace=False)
    vals = rng.integers(0, 2, size=count)
    return np.sort(idx), vals[np.argsort(idx)]


def loop_gs_sweep(f, indptr, indices, weights, order, base, denom):
    """Gauss-Seidel sweep node by node: f[i] <- (sum_j w_ij f[j] + base) / denom."""
    for k in range(order.shape[0]):
        i = order[k]
        acc = float(base[k])
        for p in range(indptr[i], indptr[i + 1]):
            acc = acc + weights[p] * f[indices[p]]
        f[i] = acc / denom[k]


def loop_from_edges(node_count, edges):
    """Record-by-record reference for ``Graph.from_edges``.

    Returns ``(indptr, indices, weights, degrees)``. Records are checked in
    input order and the first bad one raises. Two records of one edge
    conflict whenever their weights differ, zero included; zero-weight edges
    are dropped only after every record has been checked.
    """
    if node_count < 1:
        raise GraphFormatError("node_count must be positive")
    canonical = {}
    for rec in edges:
        i, j, w = (float(v) for v in rec)
        if not (i.is_integer() and j.is_integer()):
            raise GraphFormatError(f"edge ({i}, {j}) has a non-integral or non-finite endpoint")
        i, j = int(i), int(j)
        if not (0 <= i < node_count and 0 <= j < node_count):
            raise GraphFormatError(f"edge ({i}, {j}) out of range for {node_count} nodes")
        if i == j:
            raise GraphFormatError(f"self-loop on node {i}")
        if not np.isfinite(w) or w < 0:
            raise GraphFormatError(f"edge ({i}, {j}) has invalid weight {w}")
        key = (i, j) if i < j else (j, i)
        if key in canonical and canonical[key] != w:
            raise GraphFormatError(
                f"conflicting weights {canonical[key]} and {w} for edge {key}"
            )
        canonical.setdefault(key, w)

    rows, cols, vals = [], [], []
    for (i, j), w in canonical.items():
        if w != 0.0:
            rows += [i, j]
            cols += [j, i]
            vals += [w, w]
    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    vals = np.array(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    indptr = np.cumsum(indptr)
    return indptr, cols, vals, loop_row_sums(indptr, vals)


def loop_row_sums(indptr, vals):
    """Row by row ``np.sum`` of CSR values: the weighted degree when ``vals``
    are the edge weights."""
    sums = np.zeros(indptr.size - 1, dtype=np.float64)
    for i in np.flatnonzero(np.diff(indptr)).tolist():  # empty rows sum to 0
        sums[i] = float(np.sum(vals[indptr[i] : indptr[i + 1]]))
    return sums


def mixed_row_length_edges(rng, n):
    """Random spanning tree plus hub nodes, as unique ``(i, j, w)`` records.

    Tree rows have fewer than 8 entries; the hubs have 8-128, just over 128
    and ``n - 1``. Weights span six decades, so the order in which a row is
    summed shows in the last bits.
    """
    edges = {}
    for v in range(1, n):
        edges[(int(rng.integers(0, v)), v)] = None
    hubs = rng.choice(n, size=6, replace=False)
    for hub, degree in zip(hubs.tolist(), (9, 40, 128, 129, 200, n - 1)):
        for other in rng.choice(n, size=degree, replace=False).tolist():
            if other != hub:
                edges[(min(hub, other), max(hub, other))] = None
    weights = rng.uniform(0.05, 2.0, len(edges)) * 10.0 ** rng.integers(-3, 3, len(edges))
    return [(i, j, float(w)) for (i, j), w in zip(sorted(edges), weights)]


def feature_points(kind, n, d, seed):
    """``n`` points in ``d`` dimensions: ``"grid"`` integer points (many pairs
    tie at every distance), ``"tripled"`` points each given three times (zero
    distances and ties), ``"identical"`` copies of one point, ``"piled"`` half
    of them on one point and half drawn, ``"clusters"`` two tight clusters far
    apart holding three quarters and one quarter of them, ``"blob"`` a quarter
    in a tight blob among uniform outliers, or ``"normal"`` draws."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        return rng.integers(0, 4, size=(n, d)).astype(float)
    if kind == "tripled":
        return np.repeat(rng.normal(size=(n // 3, d)), 3, axis=0)
    if kind == "identical":
        return np.full((n, d), 0.5)
    if kind == "piled":
        return np.vstack((np.zeros((n // 2, d)), rng.normal(size=(n - n // 2, d))))
    if kind == "clusters":
        return rng.normal(size=(n, d)) * 1e-3 + (np.arange(n)[:, None] >= 3 * n // 4) * 1e3
    if kind == "blob":
        return np.vstack((rng.normal(size=(n // 4, d)) * 1e-3,
                          rng.uniform(-1, 1, size=(n - n // 4, d))))
    return rng.normal(size=(n, d))


def cdist_threshold_graph(features, t):
    """The threshold graph from the full ``N**2`` distance matrix and
    ``np.quantile`` over all of it (inputs assumed valid)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    dist = cdist(x, x)
    q = float(t) / n
    threshold = np.inf if q > 1 else float(np.quantile(dist.ravel(), q))
    iu, ju = np.nonzero(np.triu(dist < threshold, 1))
    return Graph.from_edges(n, np.column_stack((iu, ju, np.ones(iu.size))))


def block_knn_mean(x, points, values, kk, block_elements=1 << 16):
    """Mean of ``values`` over each row's ``kk`` nearest ``points``, from the
    full row-by-point distances taken in row blocks and a stable sort of each
    row (the lowest point index first on ties)."""
    rows = max(1, block_elements // max(1, points.size))
    g = np.empty(x.shape[0])
    for start in range(0, x.shape[0], rows):
        block = x[start : start + rows]
        d = np.sqrt(((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        nearest = np.argsort(d, axis=1, kind="stable")[:, :kk]
        g[start : start + rows] = values[nearest].mean(axis=1)
    return g


def neighbors(graph, i):
    """Sorted neighbor ids and matching weights of node ``i``."""
    lo, hi = graph.indptr[i], graph.indptr[i + 1]
    return graph.indices[lo:hi], graph.weights[lo:hi]


def loop_smoothness(graph, y, partition, k):
    """Node by node total of ``w |y_j - y_i|`` over the edges of hop ``k``."""
    y = np.asarray(y, dtype=np.float64)
    total = 0.0
    for i in partition.hops[k]:
        nbrs, w = neighbors(graph, int(i))
        total += float(np.sum(w * np.abs(y[nbrs] - y[i])))
    return total


def loop_node_error(graph, y, prior, f, partition):
    """``(node, lhs, rhs)`` of the per-node error inequality, hop by hop:
    ``|f_i - y_i| <= (sum_j w_ij (|f_j - y_j| + |y_j - y_i|) + mu_i |h_i - y_i|)
    / (deg_i + mu_i)``."""
    y = np.asarray(y, dtype=np.float64)
    err = np.abs(np.asarray(f, dtype=np.float64) - y)
    out = []
    for k in range(1, len(partition.hops)):
        for i in partition.hops[k]:
            i = int(i)
            nbrs, w = neighbors(graph, i)
            denom = float(np.sum(w)) + prior.mu[i]
            rhs = (
                float(np.sum(w * err[nbrs]))
                + float(np.sum(w * np.abs(y[nbrs] - y[i])))
                + prior.mu[i] * abs(prior.h[i] - y[i])
            ) / denom
            out.append((i, float(err[i]), float(rhs)))
    return out


def loop_directional_weights(graph, partition):
    """Per node, running totals of its edge weight one hop in, within its hop
    and one hop out, added neighbor by neighbor."""
    hop = partition.hop_of
    inw, betw, outw = (np.zeros(graph.node_count) for _ in range(3))
    for i in range(graph.node_count):
        if hop[i] < 0:
            continue
        nbrs, w = neighbors(graph, i)
        for j, wv in zip(nbrs.tolist(), w.tolist()):
            if hop[j] == hop[i] - 1:
                inw[i] += wv
            elif hop[j] == hop[i]:
                betw[i] += wv
            elif hop[j] == hop[i] + 1:
                outw[i] += wv
    return inw, betw, outw


def loop_hops(graph, labels):
    """Node-by-node breadth-first search from the labeled set: each hop's
    nodes as a sorted list, and the list of nodes no label reaches."""
    hop = {int(i): 0 for i in labels.indices}
    queue = deque(hop)
    while queue:
        i = queue.popleft()
        for j in neighbors(graph, i)[0].tolist():
            if j not in hop:
                hop[j] = hop[i] + 1
                queue.append(j)
    hops = [sorted(i for i, k in hop.items() if k == h) for h in range(max(hop.values()) + 1)]
    return hops, [i for i in range(graph.node_count) if i not in hop]


def loop_conductance(stats, k):
    """``(in + out) / (in + between + out)`` at hop ``k`` as a float, None for
    a hop with no incident edge."""
    denom = stats.in_flow[k] + stats.between_flow[k] + stats.out_flow[k]
    if denom <= 0:
        return None
    return float((stats.in_flow[k] + stats.out_flow[k]) / denom)


def loop_flows(graph, partition):
    """``(in_flow, between_flow, out_flow)`` per hop, summed hop by hop."""
    inw, betw, _ = loop_directional_weights(graph, partition)
    l = len(partition.hops) - 1
    in_flow = np.zeros(l + 1)
    between = np.zeros(l + 1)
    for k in range(l + 1):
        nodes = partition.hops[k]
        in_flow[k] = float(np.sum(inw[nodes]))  # 0 at hop 0: no hop -1
        between[k] = float(np.sum(betw[nodes]))
    out_flow = np.zeros(l + 1)
    out_flow[:l] = in_flow[1 : l + 1]
    return in_flow, between, out_flow


def loop_hop_errors(graph, f, y, partition):
    """``(avg, in_err, between_err, out_err, in_ratio, out_ratio)`` per hop:
    the mean and the flow-weighted means of ``|f - y|``, hop by hop."""
    err = np.abs(np.asarray(f, dtype=np.float64) - np.asarray(y, dtype=np.float64))
    inw, betw, outw = loop_directional_weights(graph, partition)
    l = len(partition.hops) - 1
    avg = np.zeros(l + 1)
    e_in, e_bet, e_out = (np.full(l + 1, np.nan) for _ in range(3))
    for k in range(l + 1):
        nodes = partition.hops[k]
        avg[k] = float(np.mean(err[nodes]))
        for wvec, store in ((inw, e_in), (betw, e_bet), (outw, e_out)):
            flow = float(np.sum(wvec[nodes]))
            if flow > 0:
                store[k] = float(np.sum(wvec[nodes] * err[nodes])) / flow
    a, b = (np.full(l + 1, np.nan) for _ in range(2))
    for k in range(l + 1):
        if avg[k] > 0:
            a[k] = e_in[k] / avg[k]
            b[k] = e_out[k] / avg[k]
    return avg, e_in, e_bet, e_out, a, b


def loop_hop_sums(values, partition):
    """``values`` summed over each hop, one ``np.sum`` per hop."""
    return np.array([values[h].sum() for h in partition.hops])


def loop_prior_terms(prior, f, y, partition):
    """``(mu_total, pull_error, mu_error, prior_error)`` per hop, 0 at hop 0:
    the sums of ``mu``, ``mu |h - y|`` and ``mu |f - y|`` and the mean of
    ``|h - y|``, hop by hop."""
    y = np.asarray(y, dtype=np.float64)
    err = np.abs(np.asarray(f, dtype=np.float64) - y)
    pull = np.abs(prior.h - y)
    l = len(partition.hops) - 1
    mu_total, pull_error, mu_error, a_err = np.zeros((4, l + 1))
    for k in range(1, l + 1):
        nodes = partition.hops[k]
        mu = prior.mu[nodes]
        mu_total[k] = np.sum(mu)
        pull_error[k] = np.sum(mu * pull[nodes])
        mu_error[k] = np.sum(mu * err[nodes])
        a_err[k] = np.mean(pull[nodes])
    return mu_total, pull_error, mu_error, a_err


# Line-by-line references for the file loaders of ``priorprop.fileio``: each
# line is split with ``str.splitlines``/``str.split`` and its tokens are read
# with ``int``/``float``; errors name ``path:line`` where these loops do.


def _data_lines(path):
    lines = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    return lines


def loop_load_graph(path):
    declared = None
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    edges = np.empty((len(lines), 3), dtype=np.float64)
    count = 0
    for lineno, raw in enumerate(lines, 1):
        comment = raw.strip()
        if comment.startswith("#"):
            parts = comment[1:].split()
            if len(parts) == 2 and parts[0] == "nodes" and declared is None:
                declared = int(parts[1])
            continue
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise GraphFormatError(f"{path}:{lineno}: expected 'i j w', got {raw!r}")
        try:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
        edges[count] = i, j, w
        count += 1
    edges = edges[:count]
    if declared is None:
        declared = int(edges[:, :2].max()) + 1 if count else 0
    if declared < 1:
        raise GraphFormatError(f"{path}: no nodes")
    return Graph.from_edges(declared, edges)


def loop_load_labels(path):
    idx, val = [], []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i y', got {line!r}")
        i, y = int(parts[0]), int(parts[1])
        if y not in (0, 1):
            raise ValueError(f"{path}:{lineno}: label must be 0 or 1")
        if i in idx:
            raise ValueError(f"{path}:{lineno}: duplicate node {i}")
        idx.append(i)
        val.append(y)
    return LabelSet(idx, val)


def loop_load_features(path):
    rows = []
    width = None
    for lineno, line in _data_lines(path):
        vals = [float(v) for v in line.replace(",", " ").split()]
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{path}:{lineno}: features must be finite")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValueError(f"{path}:{lineno}: ragged row ({len(vals)} != {width})")
        rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    return np.asarray(rows, dtype=np.float64)


def loop_load_votes(path):
    rows = []
    width = None
    for lineno, line in _data_lines(path):
        vals = [int(v) for v in line.replace(",", " ").split()]
        if any(v not in (0, 1, ABSTAIN) for v in vals):
            raise ValueError(f"{path}:{lineno}: votes must be 0, 1 or -1")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValueError(f"{path}:{lineno}: ragged row")
        rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no vote rows")
    return WeakVoteMatrix(np.asarray(rows, dtype=np.int8))


def loop_load_accuracies(path):
    entries = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'j p_j'")
        j = int(parts[0])
        if j in entries:
            raise ValueError(f"{path}:{lineno}: duplicate labeler {j}")
        entries[j] = float(parts[1])
    if not entries or sorted(entries) != list(range(len(entries))):
        raise ValueError(f"{path}: labeler ids must be 0..k-1")
    return LabelerAccuracy([entries[j] for j in range(len(entries))])


def loop_load_prediction(path):
    entries = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3 or parts[2] not in FLAG_NAMES.values():
            raise ValueError(f"{path}:{lineno}: expected 'i f flag'")
        i = int(parts[0])
        if i in entries:
            raise ValueError(f"{path}:{lineno}: duplicate node {i}")
        entries[i] = (float(parts[1]), parts[2])
    if sorted(entries) != list(range(len(entries))):
        raise ValueError(f"{path}: node ids must be 0..n-1")
    f = np.array([entries[i][0] for i in range(len(entries))])
    flags = [entries[i][1] for i in range(len(entries))]
    return f, flags


def reference_dumps_json(obj):
    """JSON indented by 2 with floats to 17 significant digits, each leaf
    written by ``json.dumps`` and tested with ``np.isfinite``."""

    def number(x):
        if not np.isfinite(x):
            raise ValueError("non-finite numbers cannot be serialized; map them to null first")
        s = format(float(x), ".17g")
        if not any(c in s for c in ".eE"):
            s += ".0"
        return s

    def emit(o, depth):
        pad = "  " * depth
        pad_in = "  " * (depth + 1)
        if o is None:
            return "null"
        if isinstance(o, bool) or isinstance(o, np.bool_):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return number(float(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f"{pad_in}{json.dumps(str(k))}: {emit(v, depth + 1)}" for k, v in o.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple, np.ndarray)):
            seq = list(o)
            if not seq:
                return "[]"
            items = [f"{pad_in}{emit(v, depth + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj, 0) + "\n"
