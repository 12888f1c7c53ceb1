"""On-disk formats: edge lists, labels, features, votes, predictions, JSON.

All text formats are UTF-8 with ``#`` comments. Floats are written with 17
significant digits so every file round-trips bit-exactly and repeated runs
produce byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from priorprop.graph import Graph, GraphFormatError, LabelSet
from priorprop.multisource import ABSTAIN, LabelerAccuracy, WeakVoteMatrix
from priorprop.solver import FLAG_NAMES, Prediction

_FLAG_CODES = {name: code for code, name in FLAG_NAMES.items()}


def fmt_float(x: float) -> str:
    s = format(float(x), ".17g")
    return s


def _json_number(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("non-finite numbers cannot be serialized; map them to null first")
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def dumps_json(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON with fixed-precision floats (17 significant digits)."""

    def emit(o: Any, depth: int) -> str:
        pad = " " * (indent * depth)
        pad_in = " " * (indent * (depth + 1))
        if o is None:
            return "null"
        if isinstance(o, bool) or isinstance(o, np.bool_):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _json_number(float(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f"{pad_in}{json.dumps(str(k))}: {emit(v, depth + 1)}" for k, v in o.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple, np.ndarray)):
            seq = list(o)
            if not seq:
                return "[]"
            items = [f"{pad_in}{emit(v, depth + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj, 0) + "\n"


def write_json(obj: Any, path) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8")


def _data_lines(path) -> list[tuple[int, str]]:
    lines = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    return lines


def save_graph(graph: Graph, path) -> None:
    """Edge list, one undirected edge per line, with a node-count header."""
    out = [f"# nodes {graph.node_count}"]
    out.extend(f"{i} {j} {fmt_float(w)}" for i, j, w in graph.edge_list())
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_graph(path, node_count: int | None = None) -> Graph:
    """Parse an edge list; honors a ``# nodes N`` comment if present.

    Without either the comment or ``node_count``, the node count is inferred
    as (largest index + 1).
    """
    declared = node_count
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


def save_labels(labels: LabelSet, path) -> None:
    out = [f"{int(i)} {int(v)}" for i, v in zip(labels.indices, labels.values)]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_labels(path) -> LabelSet:
    idx, val = [], []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i y', got {line!r}")
        idx.append(int(parts[0]))
        y = int(parts[1])
        if y not in (0, 1):
            raise ValueError(f"{path}:{lineno}: label must be 0 or 1")
        val.append(y)
    return LabelSet(idx, val)


def _split_row(line: str) -> list[str]:
    return line.replace(",", " ").split()


def save_features(features: np.ndarray, path) -> None:
    rows = np.asarray(features, dtype=np.float64)
    out = [" ".join(fmt_float(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_features(path) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in _data_lines(path):
        vals = [float(v) for v in _split_row(line)]
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValueError(f"{path}:{lineno}: ragged row ({len(vals)} != {width})")
        rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    x = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: features must be finite")
    return x


def save_votes(votes: WeakVoteMatrix, path) -> None:
    out = [" ".join(str(int(v)) for v in row) for row in votes.votes]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_votes(path) -> WeakVoteMatrix:
    rows = []
    width = None
    for lineno, line in _data_lines(path):
        vals = [int(v) for v in _split_row(line)]
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


def save_accuracies(acc: LabelerAccuracy, path) -> None:
    out = [f"{j} {fmt_float(p)}" for j, p in enumerate(acc.p)]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_accuracies(path) -> LabelerAccuracy:
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


def save_prediction(prediction: Prediction, path) -> None:
    """Lines ``i f_i flag`` with flag in ok/unreachable/nonconverged."""
    names = prediction.flag_names()
    out = [
        f"{i} {fmt_float(v)} {names[i]}" for i, v in enumerate(prediction.f)
    ]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_prediction(path) -> tuple[np.ndarray, list[str]]:
    entries = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3 or parts[2] not in _FLAG_CODES:
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
