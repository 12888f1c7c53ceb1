"""Sparse symmetric similarity graphs and their hop decomposition.

The graph is stored as a CSR adjacency structure with sorted neighbor lists,
so every traversal is deterministic. Its hop decomposition, a
:class:`NeighborhoodPartition`, holds the graph and the labeled set and
derives each node's hop from them, so a layering cannot belong to another
graph. A node's own sums, its weighted degree among them, add its entries
one by one in CSR order, as the solver's products ``W @ v`` do; sums over a
hop are ``np.sum`` over the hop's nodes. Instances are immutable after
construction, apart from cached properties that are functions of the
constructor's arrays alone, so no result depends on which of them were read
before; reads are safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra, reverse_cuthill_mckee


# the largest node count whose edge keys ``lo * node_count + hi`` fit in int64
MAX_NODES = math.isqrt(2**63 - 1)


class GraphFormatError(ValueError):
    """Malformed, asymmetric, self-looped or negatively weighted edge data."""


def _edge_records(edges) -> np.ndarray:
    """Edge records as an ``(m, 3)`` float array; ragged or non-numeric input raises."""
    if not isinstance(edges, (np.ndarray, Sequence)):
        edges = list(edges)
    try:
        rec = np.asarray(edges, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed edge records: {exc}") from exc
    if rec.ndim == 1 and rec.size == 0:
        return rec.reshape(0, 3)
    if rec.ndim != 2 or rec.shape[1] != 3:
        raise GraphFormatError(f"edge records must be (i, j, w) triples, got shape {rec.shape}")
    return rec


def _raise_invalid(record: np.ndarray, node_count: int) -> None:
    """Raise the error for a record that fails the per-record checks."""
    i, j, w = (float(v) for v in record)
    if not (i.is_integer() and j.is_integer()):
        raise GraphFormatError(f"edge ({i}, {j}) has a non-integral or non-finite endpoint")
    i, j = int(i), int(j)
    if not (0 <= i < node_count and 0 <= j < node_count):
        raise GraphFormatError(f"edge ({i}, {j}) out of range for {node_count} nodes")
    if i == j:
        raise GraphFormatError(f"self-loop on node {i}")
    raise GraphFormatError(f"edge ({i}, {j}) has invalid weight {w}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected, non-negatively weighted graph.

    ``indptr``/``indices``/``weights`` form a CSR adjacency in which every
    undirected edge appears in both endpoint rows and neighbor ids are sorted
    within each row. Everything else is derived from these three arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_edges(
        cls, node_count: int, edges: Iterable[tuple[int, int, float]] | np.ndarray
    ) -> "Graph":
        """Build a graph from undirected ``(i, j, w)`` records.

        ``edges`` is a sequence of records or an ``(m, 3)`` array. Each
        undirected edge may be listed once in either orientation, or several
        times with equal weights; records of one edge whose weights differ
        (zero included) conflict, whatever their order. Endpoints must be
        integral; self-loops, negative or non-finite weights, out-of-range
        endpoints and conflicts are rejected, naming the first offending
        record in input order, and so is a node whose weights sum past the
        float range, naming the first such node. Zero-weight records are
        dropped: they contribute nothing to any propagation or flow formula.

        The cost is one stable sort of the records by their edge, which is
        close to a linear pass when they already come in canonical order (as
        ``save_graph`` writes them), and one linear placement of the CSR
        entries. ``node_count`` may be at most ``MAX_NODES``
        (``isqrt(2**63 - 1)``), so that an edge's key fits in int64.
        """
        try:
            node_count = operator.index(node_count)
        except TypeError:
            raise GraphFormatError(f"node_count must be an integer, got {node_count!r}") from None
        if node_count < 1:
            raise GraphFormatError("node_count must be positive")
        if node_count > MAX_NODES:
            raise GraphFormatError(f"node_count {node_count} exceeds the limit of {MAX_NODES}")
        rec = _edge_records(edges)
        i_f, j_f, w = rec[:, 0], rec[:, 1], rec[:, 2]
        integral = (i_f == np.trunc(i_f)) & (j_f == np.trunc(j_f))
        in_range = (i_f >= 0) & (i_f < node_count) & (j_f >= 0) & (j_f < node_count)
        i = np.where(in_range, i_f, 0).astype(np.int64)
        j = np.where(in_range, j_f, 0).astype(np.int64)
        invalid = ~(integral & in_range) | (i == j) | ~((w >= 0) & (w < np.inf))
        # the records before the first invalid one are all valid, so a conflict
        # among them is reported first, as a record-by-record scan would
        first_bad = int(np.argmax(invalid)) if invalid.any() else rec.shape[0]
        lo = np.minimum(i[:first_bad], j[:first_bad])
        hi = np.maximum(i[:first_bad], j[:first_bad])
        key = lo * node_count + hi
        order = np.argsort(key, kind="stable")  # input order within each edge
        key, w_s = key[order], w[order]
        group_first = np.ones(order.size, dtype=bool)
        group_first[1:] = key[1:] != key[:-1]
        first_w = w_s[group_first][np.cumsum(group_first) - 1]
        conflicts = np.flatnonzero(w_s != first_w)
        if conflicts.size:
            pos = conflicts[np.argmin(order[conflicts])]
            raise GraphFormatError(
                f"conflicting weights {float(first_w[pos])} and {float(w_s[pos])} "
                f"for edge {divmod(int(key[pos]), node_count)}"
            )
        if first_bad < rec.shape[0]:
            _raise_invalid(rec[first_bad], node_count)

        keep = order[group_first & (w_s != 0.0)]
        lo, hi, w_k = lo[keep], hi[keep], w[keep]
        # each row lists its lower neighbours (from the (hi, lo) copies) before
        # its higher ones, each ascending, so placing the entries by row in
        # this order (a stable counting placement) leaves every row sorted
        adj = sp.coo_array(
            (np.concatenate((w_k, w_k)), (np.concatenate((hi, lo)), np.concatenate((lo, hi)))),
            shape=(node_count, node_count),
        ).tocsr()
        graph = cls(
            indptr=adj.indptr.astype(np.int64),
            indices=adj.indices.astype(np.int64),
            weights=adj.data,
        )
        overflowed = np.flatnonzero(~np.isfinite(graph.degrees))
        if overflowed.size:
            raise GraphFormatError(
                f"the edge weights at node {int(overflowed[0])} sum past the float range"
            )
        return graph

    @property
    def node_count(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    def _upper_triangle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and weights of the CSR entries with column > row.

        Each undirected edge appears once, sorted by row and then column.
        """
        upper = self.indices > self.rows
        return self.rows[upper], self.indices[upper], self.weights[upper]

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Each undirected edge once, as ``(i, j, w)`` with ``i < j``, sorted."""
        rows, cols, w = self._upper_triangle()
        return list(zip(rows.tolist(), cols.tolist(), w.tolist()))

    @cached_property
    def rows(self) -> np.ndarray:
        """Row of each CSR entry, aligned with ``indices`` (shared, read-only)."""
        rows = np.repeat(np.arange(self.node_count), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degree of each node, its row's weights added in CSR order
        (float64, shared, read-only)."""
        degrees = self.matrix @ np.ones(self.node_count)
        degrees.flags.writeable = False
        return degrees

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """Adjacency as a scipy CSR matrix (shared, read-only)."""
        return sp.csr_matrix(
            (self.weights, self.indices, self.indptr),
            shape=(self.node_count, self.node_count),
        )

    @cached_property
    def component_of(self) -> np.ndarray:
        """Connected-component id per node."""
        n_comp, comp = connected_components(self.matrix, directed=False)
        return comp

    @cached_property
    def rcm_profile(self) -> tuple[int, float]:
        """Reverse Cuthill-McKee bandwidth and an upper bound ``R >= lambda_2``.

        ``R`` is the Laplacian's Rayleigh quotient of the breadth-first hop
        counts from the ordering's first node, centred so that they are
        orthogonal to the constant vector. The graph must be connected, so no
        row is empty and every hop count is finite, and have two nodes or more,
        so the counts are not all zero; any other graph raises ``ValueError``.
        """
        if self.node_count < 2 or int(self.component_of.max()) > 0:
            raise ValueError("the RCM profile needs a connected graph of two nodes or more")
        order = reverse_cuthill_mckee(self.matrix, symmetric_mode=True)
        pos = np.empty(self.node_count, dtype=np.int64)
        pos[order] = np.arange(self.node_count)
        # each edge gives pos[i] - pos[j] > 0 in one of its rows, so the largest
        # row value of pos - (first neighbour position) is the bandwidth
        first = np.minimum.reduceat(pos[self.indices], self.indptr[:-1])
        band = int(np.max(pos - first))
        hops = dijkstra(self.matrix, unweighted=True, indices=int(order[0]))
        x = hops - hops.mean()
        rows, cols, w = self._upper_triangle()
        diff = x[rows] - x[cols]
        return band, float(w @ (diff * diff)) / float(x @ x)


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Hard-labeled nodes: sorted unique indices and binary labels."""

    indices: np.ndarray
    values: np.ndarray

    def __init__(self, indices: Sequence[int], values: Sequence[int]):
        idx = np.asarray(indices)
        val = np.asarray(values)
        if idx.ndim != 1 or val.shape != idx.shape:
            raise ValueError("indices and values must be 1-D and equally long")
        # validate the raw values: a cast truncates or wraps what it cannot hold
        with np.errstate(invalid="ignore"):
            cast = idx.astype(np.int64) if idx.dtype.kind in "iuf" else None
        if cast is None or not np.array_equal(cast, idx):
            raise ValueError("labeled indices must be finite integers")
        if not np.all(np.isin(val, (0, 1))):
            raise ValueError("labels must be 0 or 1")
        idx, val = cast, val.astype(np.int8)
        if idx.size and np.unique(idx).size != idx.size:
            raise ValueError("labeled indices must be unique")
        order = np.argsort(idx)
        object.__setattr__(self, "indices", idx[order])
        object.__setattr__(self, "values", val[order])

    def __len__(self) -> int:
        return int(self.indices.size)

    def validate_against(self, node_count: int) -> None:
        if self.indices.size and int(self.indices[-1]) >= node_count:
            raise ValueError("labeled index out of range")
        if self.indices.size and int(self.indices[0]) < 0:
            raise ValueError("labeled index negative")


def _as_truth(true_labels_full, node_count: int) -> np.ndarray:
    """Full ground truth as floats: one 0 or 1 per node, else ``ValueError``."""
    y = np.asarray(true_labels_full)
    if y.shape != (node_count,):
        raise ValueError("true labels must cover every node")
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("true labels must be 0 or 1")
    return y.astype(np.float64)


@dataclass(frozen=True, eq=False)
class NeighborhoodPartition:
    """Hop layering of ``graph`` around the labeled set ``labels``.

    Construction validates the labels and runs one breadth-first search from
    every labeled node at once. ``hop_of`` (read-only) maps each node to its
    hop index, its unweighted shortest-path distance to the labeled set (-1
    for unreachable). Every stored CSR entry is an edge, zero weights
    included, and the distances depend on the graph alone, not on the order
    its edges were listed in, so every edge joins hops at most one apart, or
    two unreachable nodes. ``hops[k]`` lists the nodes of hop k in ascending
    order, ``hops[0]`` being the labeled set itself, and ``unreachable`` the
    nodes with no path to a labeled node. Raises if ``labels`` is empty.
    """

    graph: Graph
    labels: LabelSet
    hop_of: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.labels.validate_against(self.graph.node_count)
        if len(self.labels) == 0:
            raise ValueError("at least one labeled node is required")
        # min_only keeps one distance per node instead of a labels x nodes matrix;
        # each edge is stored in both its rows, so the search follows rows as they are
        dist = dijkstra(self.graph.matrix, unweighted=True, indices=self.labels.indices,
                        min_only=True)
        dist[np.isinf(dist)] = -1
        hop_of = dist.astype(np.int64)
        hop_of.flags.writeable = False
        object.__setattr__(self, "hop_of", hop_of)

    @cached_property
    def hops(self) -> tuple[np.ndarray, ...]:
        # a stable sort keeps each hop ascending; the unreachable nodes come first
        order = np.argsort(self.hop_of, kind="stable")
        return tuple(np.split(order, np.cumsum(np.bincount(self.hop_of + 1))[:-1]))[1:]

    @cached_property
    def unreachable(self) -> np.ndarray:
        return np.flatnonzero(self.hop_of < 0)

    @property
    def max_hop(self) -> int:
        return len(self.hops) - 1


def compute_neighborhoods(graph: Graph, labels: LabelSet) -> NeighborhoodPartition:
    """Breadth-first hop layering of ``graph`` from the labeled set ``labels``."""
    return NeighborhoodPartition(graph, labels)


def _quantile_positions(m: int, q: float) -> tuple[int, int, float]:
    """Sorted positions and weight of numpy's linear quantile ``q`` of ``m`` values.

    ``np.quantile(a, q)`` is ``_lerp(s[lo], s[hi], gamma)`` for ``s = np.sort(a)``,
    bit for bit: numpy's virtual index ``(m - 1) * q``, its floor and the
    next position, both clipped to the last one.
    """
    virtual = (m - 1) * q
    if virtual >= m - 1:
        return m - 1, m - 1, 0.0
    lo = math.floor(virtual)
    return lo, lo + 1, virtual - lo


def _lerp(a: float, b: float, gamma: float) -> float:
    """numpy's quantile interpolation, including its branch for ``gamma >= 0.5``."""
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def _distances(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Euclidean distances of rows ``i`` and ``j`` of ``x`` as ``cdist`` computes
    them: the squared differences summed in feature order, then the root."""
    total = np.zeros(i.size)
    for k in range(x.shape[1]):
        total += (x[i, k] - x[j, k]) ** 2
    return np.sqrt(total)


def _nearest_pairs(tree, x: np.ndarray, k: int, need: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of rows of ``x`` that include its ``need`` closest, and their distances.

    The distances are summed by ``_distances``. A radius query returns the
    pairs within ``radius`` by the kd-tree's own distances, which differ from
    those by rounding only, so once ``need`` pairs lie within
    ``radius / (1 + 1e-9)``, every pair up to the ``need``-th smallest distance
    is among those returned. The first radius is the smallest ``k``-th
    neighbour distance in a strided sample of about 256 rows. A zero radius
    that holds too few pairs moves to the sample's smallest positive one; a
    positive radius that holds ``held < need`` grows by the pair deficit,
    ``(1.1 * need / held) ** (1/d)`` clipped to [1.1, 2]: the pair
    count of clustered points grows slower than ``radius ** d``, and a radius
    aimed at ``need`` exactly would often fall just short. A round that holds
    no pair more than the one before doubles the radius, since the next pairs
    lie past a gap. Every round raises the radius, up to the bounding-box
    diameter, within which every pair lies; there all pairs are taken without a
    query, so the loop ends.
    """
    n, d = x.shape
    margin = 1 + 1e-9
    kth = tree.query(x[:: max(1, n // 256)], [min(n, k + 1)])[0][:, 0]
    cap = float(np.sqrt(np.sum((x.max(axis=0) - x.min(axis=0)) ** 2)))
    radius, held_before = float(kth.min()), 0
    while radius < cap:
        pairs = tree.query_pairs(radius, output_type="ndarray")
        dist = _distances(x, pairs[:, 0], pairs[:, 1])
        held = int(np.count_nonzero(dist * margin <= radius))
        if held >= need:
            return pairs, dist
        if radius == 0:
            radius = float(np.min(kth[kth > 0], initial=cap))
        elif held == held_before:
            radius = min(radius * 2.0, cap)
        else:
            radius = min(radius * min(max((1.1 * need / held) ** (1 / d), 1.1), 2.0), cap)
        held_before = held
    pairs = np.column_stack(np.triu_indices(n, 1))
    return pairs, _distances(x, pairs[:, 0], pairs[:, 1])


def _check_feature_span(x: np.ndarray) -> None:
    """Reject features whose squared distances can overflow.

    No squared distance between rows of ``x`` exceeds the sum of the squared
    spans of their bounding box; a kd-tree over features where that sum is
    not finite fails with an overflow that names neither.
    """
    if x.shape[0] < 2:
        return
    with np.errstate(over="ignore"):
        span = x.max(axis=0) - x.min(axis=0)
        overflows = not np.isfinite(np.sum(span * span))
    if overflows:
        raise ValueError(
            f"features span up to {float(span.max()):g} along an axis; the squared "
            "distances across their bounding box overflow"
        )


def build_threshold_graph(features: np.ndarray, t: float) -> Graph:
    """Euclidean distance-threshold graph with unit edge weights.

    Connects ``i != j`` iff their distance is strictly below the
    linear-interpolation quantile at fraction ``t/N`` of all ``N**2`` pairwise
    distances (self-distances included in the pool), which makes the average
    degree come out near ``t``. A fraction above 1 places the threshold above
    the largest distance and yields the complete graph. Duplicated points are
    connected whenever the threshold is positive, but a point is never
    connected to itself.

    The pool is never built. It holds ``N`` zeros and every pair distance
    twice, so the quantile needs only the ``need`` (about ``N(t - 1)/2``)
    smallest pair distances. kd-tree radius queries find them from a radius
    that grows until it holds ``need`` pairs (``_nearest_pairs``): it starts at
    a sample's smallest ``ceil(t)``-th neighbour distance and grows by at most
    2 per round. Distances are summed as ``cdist`` sums them, so the edges are
    exactly those of the full ``N**2`` computation. Memory is the pairs within
    the last radius, a sample neighbour distance or at most twice one that held
    fewer than ``need``: O(2**d N·t) pairs when the pair count grows like
    ``radius**d``, and about 1.1 ``need`` on the demo's clusters. It is more
    when the sample misses a dense region, whose pairs within the start radius
    are all returned. The kd-tree module, ``scipy.spatial``, loads on the first
    call that builds a tree, so importing the package does not pay for it.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("features must be a 2-D array with at least two rows")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    t = float(t)
    n = x.shape[0]
    if not t > 0:
        raise ValueError(f"degree target t must be positive, got {t}")
    if t / n > 100:
        raise ValueError(f"degree target t={t} is out of range for {n} nodes")
    q = t / n
    if q > 1:
        iu, ju = np.triu_indices(n, 1)
        return Graph.from_edges(n, np.column_stack((iu, ju, np.ones(iu.size))))
    lo, hi, gamma = _quantile_positions(n * n, q)
    # pool position p >= n holds the ((p - n) // 2)-th smallest pair distance
    need = (hi - n) // 2 + 1
    if need <= 0:  # the threshold is a self-zero, and no distance is below it
        return Graph.from_edges(n, np.empty((0, 3)))
    _check_feature_span(x)
    from scipy.spatial import cKDTree

    pairs, dist = _nearest_pairs(cKDTree(x), x, math.ceil(t), need)
    # only the two pool positions are read, so place just those in sorted order
    ranks = sorted({(p - n) // 2 for p in (lo, hi) if p >= n})
    smallest = np.partition(dist, ranks)
    pool = [0.0 if p < n else float(smallest[(p - n) // 2]) for p in (lo, hi)]
    edges = pairs[dist < _lerp(*pool, gamma)]
    return Graph.from_edges(n, np.column_stack((edges, np.ones(len(edges)))))


def average_degree(graph: Graph) -> float:
    return 2.0 * graph.edge_count / graph.node_count
