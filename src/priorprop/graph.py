"""Sparse symmetric similarity graphs and their hop decomposition.

The graph is stored as a CSR adjacency structure with sorted neighbor lists,
so every traversal is deterministic. Instances are immutable after
construction; reads are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist


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


def _row_sums(indptr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``np.sum`` of each CSR row of ``vals``, bit for bit.

    Summing a block of equally long rows along its last axis adds each row in
    the pairwise order ``np.sum`` uses on that row alone; ``np.add.reduceat``
    does not, and differs from it in the last bit from 3 entries on.
    """
    lengths = np.diff(indptr)
    sums = np.zeros(lengths.size)
    for length in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == length)
        sums[rows] = vals[indptr[rows, None] + np.arange(length)].sum(axis=1)
    return sums


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected, non-negatively weighted graph over ``node_count`` nodes.

    ``indptr``/``indices``/``weights`` form a CSR adjacency in which every
    undirected edge appears in both endpoint rows and neighbor ids are sorted
    within each row. ``degrees`` caches the per-node weighted degree and is
    always equal to the recomputed row sums.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray

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
        record in input order. Zero-weight records are dropped: they
        contribute nothing to any propagation or flow formula.
        """
        if node_count < 1:
            raise GraphFormatError("node_count must be positive")
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
        order = np.lexsort((hi, lo))  # stable: input order within each edge
        lo, hi, w_s = lo[order], hi[order], w[:first_bad][order]
        group_first = np.ones(order.size, dtype=bool)
        group_first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        first_w = w_s[group_first][np.cumsum(group_first) - 1]
        conflicts = np.flatnonzero(w_s != first_w)
        if conflicts.size:
            pos = conflicts[np.argmin(order[conflicts])]
            raise GraphFormatError(
                f"conflicting weights {float(first_w[pos])} and {float(w_s[pos])} "
                f"for edge {(int(lo[pos]), int(hi[pos]))}"
            )
        if first_bad < rec.shape[0]:
            _raise_invalid(rec[first_bad], node_count)

        keep = group_first & (w_s != 0.0)
        lo, hi, w_s = lo[keep], hi[keep], w_s[keep]
        rows = np.concatenate((lo, hi))
        cols = np.concatenate((hi, lo))
        vals = np.concatenate((w_s, w_s))
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
        return cls(
            node_count=node_count,
            indptr=indptr,
            indices=cols,
            weights=vals,
            degrees=_row_sums(indptr, vals),
        )

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted neighbor ids and matching weights of node ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def _upper_triangle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and weights of the CSR entries with column > row.

        Each undirected edge appears once, sorted by row and then column.
        """
        rows = np.repeat(np.arange(self.node_count), np.diff(self.indptr))
        upper = self.indices > rows
        return rows[upper], self.indices[upper], self.weights[upper]

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Each undirected edge once, as ``(i, j, w)`` with ``i < j``, sorted."""
        rows, cols, w = self._upper_triangle()
        return list(zip(rows.tolist(), cols.tolist(), w.tolist()))

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
            cast = idx.astype(np.int64) if idx.dtype.kind in "biuf" else None
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
    """Hop layering around the labeled set.

    ``hops[0]`` is the labeled set itself, ``hops[k]`` the nodes whose
    shortest path to any labeled node has length ``k``; ``unreachable``
    collects nodes with no path to a labeled node. ``hop_of`` maps each node
    to its hop index (-1 for unreachable).
    """

    hops: tuple[np.ndarray, ...]
    unreachable: np.ndarray
    hop_of: np.ndarray

    @property
    def max_hop(self) -> int:
        return len(self.hops) - 1

    def validate_against(self, graph: Graph) -> None:
        if self.hop_of.size != graph.node_count:
            raise ValueError("partition does not match graph size")


def compute_neighborhoods(graph: Graph, labels: LabelSet) -> NeighborhoodPartition:
    """Breadth-first hop layering from the labeled set.

    Deterministic regardless of edge insertion order (frontiers are kept
    sorted). Raises if ``labels`` is empty.
    """
    labels.validate_against(graph.node_count)
    if len(labels) == 0:
        raise ValueError("at least one labeled node is required")
    hop_of = np.full(graph.node_count, -1, dtype=np.int64)
    frontier = labels.indices.copy()
    hop_of[frontier] = 0
    hops = [frontier]
    k = 0
    while True:
        # gather the CSR rows of the whole frontier at once
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        offsets = np.cumsum(counts) - counts
        positions = np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)
        cand = np.unique(graph.indices[positions])
        nxt = cand[hop_of[cand] < 0]
        if nxt.size == 0:
            break
        k += 1
        hop_of[nxt] = k
        hops.append(nxt)
        frontier = nxt
    unreachable = np.flatnonzero(hop_of < 0).astype(np.int64)
    return NeighborhoodPartition(hops=tuple(hops), unreachable=unreachable, hop_of=hop_of)


def build_threshold_graph(features: np.ndarray, t: float) -> Graph:
    """Euclidean distance-threshold graph with unit edge weights.

    Connects ``i != j`` iff their distance is strictly below the
    linear-interpolation quantile at fraction ``t/N`` of all ``N**2`` pairwise
    distances (self-distances included in the pool), which makes the average
    degree come out near ``t``. A fraction above 1 places the threshold above
    the largest distance and yields the complete graph. Duplicated points are
    connected whenever the threshold is positive, but a point is never
    connected to itself.
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
    dist = cdist(x, x)
    q = t / n
    threshold = np.inf if q > 1 else float(np.quantile(dist.ravel(), q))
    iu, ju = np.nonzero(np.triu(dist < threshold, 1))
    return Graph.from_edges(n, np.column_stack((iu, ju, np.ones(iu.size))))


def average_degree(graph: Graph) -> float:
    return 2.0 * graph.edge_count / graph.node_count
