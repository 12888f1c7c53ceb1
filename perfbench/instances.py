"""Seeded synthetic instances for the benchmark, written in the CLI's file formats.

Graphs are random geometric graphs on the unit torus: points are uniform in
``[0, 1)^dim`` and every pair closer than the radius (periodic distance) is an
edge, found with ``scipy.spatial.cKDTree.query_pairs``. The radius starts at
the value whose expected degree is ``degree`` and grows by 1% until the graph
is connected. The torus has no boundary, so degrees are uniform and the graph
size varies little from seed to seed, which keeps per-job work steady.

Truth is a smooth periodic function of position, so propagation has signal
to carry. Labels are a class-balanced random subset of the truth, and each of
``labelers`` weak labelers casts a vote with probability ``coverage`` that is
correct with probability ``accuracy``.

Everything is vectorized and is a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

ABSTAIN = -1


@dataclass(frozen=True)
class InstanceSpec:
    nodes: int
    dim: int
    degree: float
    labeled: int
    labelers: int = 3
    coverage: float = 0.6
    accuracy: float = 0.8


@dataclass(frozen=True, eq=False)
class Instance:
    """Undirected edges ``i < j`` with weights, truth, labels and votes."""

    nodes: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    truth: np.ndarray
    label_idx: np.ndarray
    votes: np.ndarray

    def adjacency(self) -> sp.csr_matrix:
        rows = np.concatenate([self.i, self.j])
        cols = np.concatenate([self.j, self.i])
        vals = np.concatenate([self.w, self.w])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.nodes, self.nodes))


def _ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def _connected(n: int, pairs: np.ndarray) -> bool:
    adj = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    count, _ = connected_components(adj, directed=False)
    return count == 1


def _periodic_distance(points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    diff = np.abs(points[pairs[:, 0]] - points[pairs[:, 1]])
    diff = np.minimum(diff, 1.0 - diff)
    return np.sqrt((diff * diff).sum(axis=1))


def generate(spec: InstanceSpec, seed: int | np.random.SeedSequence) -> Instance:
    rng = np.random.default_rng(seed)
    n = spec.nodes
    points = rng.random((n, spec.dim))
    tree = cKDTree(points, boxsize=1.0)
    radius = (spec.degree / (n * _ball_volume(spec.dim))) ** (1.0 / spec.dim)
    while True:
        pairs = tree.query_pairs(radius, output_type="ndarray")
        if _connected(n, pairs):
            break
        radius *= 1.01
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    w = np.exp(-((_periodic_distance(points, pairs) / radius) ** 2))

    phase = rng.random(2) * 2.0 * math.pi
    field = np.sin(2.0 * math.pi * points[:, 0] + phase[0]) + 0.5 * np.sin(
        2.0 * math.pi * points[:, 1] + phase[1]
    )
    truth = (field > 0).astype(np.int8)

    per_class = (spec.labeled - spec.labeled // 2, spec.labeled // 2)
    picks = [rng.permutation(np.flatnonzero(truth == c))[:want] for c, want in enumerate(per_class)]
    label_idx = np.sort(np.concatenate(picks)).astype(np.int64)

    cast = rng.random((n, spec.labelers)) < spec.coverage
    correct = rng.random((n, spec.labelers)) < spec.accuracy
    vote = np.where(correct, truth[:, None], 1 - truth[:, None])
    votes = np.where(cast, vote, ABSTAIN).astype(np.int8)
    return Instance(
        nodes=n,
        i=pairs[:, 0].astype(np.int64),
        j=pairs[:, 1].astype(np.int64),
        w=w,
        truth=truth,
        label_idx=label_idx,
        votes=votes,
    )


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_files(inst: Instance, directory: Path) -> dict[str, Path]:
    """Write graph, labels, truth and votes; return their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "graph": directory / "graph.txt",
        "labels": directory / "labels.txt",
        "truth": directory / "truth.txt",
        "votes": directory / "votes.txt",
    }
    edges = (f"{a} {b} {c!r}" for a, b, c in zip(inst.i.tolist(), inst.j.tolist(), inst.w.tolist()))
    _write_lines(paths["graph"], [f"# nodes {inst.nodes}", *edges])
    y = inst.truth.tolist()
    _write_lines(paths["labels"], (f"{i} {y[i]}" for i in inst.label_idx.tolist()))
    _write_lines(paths["truth"], (f"{i} {v}" for i, v in enumerate(y)))
    _write_lines(paths["votes"], (" ".join(map(str, row)) for row in inst.votes.tolist()))
    return paths
