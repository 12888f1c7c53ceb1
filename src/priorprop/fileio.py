"""On-disk formats: edge lists, labels, features, votes, predictions, JSON.

Each input table is UTF-8 text read by one ``np.loadtxt`` call. Fields are
separated by spaces or tabs (features and votes also take commas), ``#``
starts a comment, and numbers are ASCII: integers ``[+-]digits``, floats as
``float`` reads them. An edge list may give its node count in a ``# nodes N``
comment line. Every token or line error names its ``path:line``. Rejected:
underscores (``1_0``), non-ASCII digits, line breaks other than ``\\n``,
``\\r\\n`` and ``\\r`` (such as U+2028), and, in features and votes, a first row
of only commas. Floats are written with 17 significant digits so every file
round-trips bit-exactly and repeated runs give byte-identical output.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Any

import numpy as np

from priorprop.graph import Graph, GraphFormatError, LabelSet
from priorprop.multisource import ABSTAIN, LabelerAccuracy, WeakVoteMatrix
from priorprop.solver import FLAG_NAMES, Prediction

_FLAGS = list(FLAG_NAMES.values())
# one character longer than the longest flag, so a longer (truncated) token is no flag
_PREDICTION = [("i", np.int64), ("f", np.float64), ("flag", f"U{max(map(len, _FLAGS)) + 1}")]
# line breaks of str.splitlines that np.loadtxt reads as whitespace
_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# a non-ASCII character in a field: numpy's integer parser passes it to C's
# isdigit, which can read out of bounds and crash on code points above 0xFFFF
_NON_ASCII_FIELD = re.compile(r"^[^#\n]*?[^\x00-\x7f\s]", re.M)
# a row of only commas, which would read as a blank line once commas are spaces
_COMMA_ROW = re.compile(r"^[^\S\n]*,(?:[^\S\n]|,)*(?:#|$)", re.M)
_NODES = re.compile(r"^[^\S\n]*#[^\S\n]*nodes[^\S\n]+(\S+)[^\S\n]*$", re.M)


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_number(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite numbers cannot be serialized; map them to null first")
    # a finite float under ".17g" has no "E", and no "." or "e" only when integral
    s = format(x, ".17g")
    return s if "." in s or "e" in s else s + ".0"


def dumps_json(obj: Any) -> str:
    """Deterministic JSON indented by 2, floats to 17 significant digits."""

    def emit(o: Any, depth: int) -> str:
        # the leaf types are disjoint, so testing the common ones first changes no output
        if isinstance(o, (float, np.floating)):
            return _json_number(float(o))
        if isinstance(o, str):
            return _json_string(o)
        if o is None:
            return "null"
        if isinstance(o, (bool, np.bool_)):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        pad = "  " * depth
        pad_in = "  " * (depth + 1)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f"{pad_in}{_json_string(str(k))}: {emit(v, depth + 1)}" for k, v in o.items()
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


def _read_table(path, dtype, form: str, valid=None, unique=None, commas=False, error=ValueError):
    """The rows of the table in ``path``, and the text they were read from.

    A structured ``dtype`` has one field per column, a plain one reads a matrix
    of equally long rows; ``commas`` reads commas as spaces. ``valid(rows)``
    says whether every row keeps the format's rules for a single row, and
    ``unique = (field, noun)`` names a field no two rows may share. After a
    failure, bisection finds the shortest failing prefix; its last line, the
    first bad one, is named as ``path:line``, with ``form``, the form of a good
    line, when the line fails on its own.
    """
    dtype = np.dtype(dtype)

    def parse(text: str) -> np.ndarray:
        if (any(c in text for c in _LINE_BREAKS) or commas and _COMMA_ROW.search(text)
                or not text.isascii() and _NON_ASCII_FIELD.search(text)):
            raise ValueError("unsupported line")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(io.StringIO(text.replace(",", " ") if commas else text),
                              dtype=dtype, comments="#", ndmin=1 if dtype.names else 2)
        if valid and not valid(rows) or unique and np.unique(rows[unique[0]]).size < len(rows):
            raise ValueError("rule broken")
        return rows

    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse(text), text
    except ValueError:
        lines = text.split("\n")
    good, bad = 0, len(lines)  # parse succeeds on lines[:good], fails on lines[:bad]
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            parse("\n".join(lines[:mid]))
            good = mid
        except ValueError:
            bad = mid
    line = lines[bad - 1]
    try:
        row = parse(line)
    except ValueError:
        raise error(f"{path}:{bad}: expected {form}, got {line.strip()!r}") from None
    if dtype.names is None:  # a matrix row of another length than the rows above it
        width = parse("\n".join(lines[:good])).shape[1]
        raise error(f"{path}:{bad}: ragged row ({row.shape[1]} != {width})")
    field, noun = unique  # the one rule across rows: the line repeats an id above it
    raise error(f"{path}:{bad}: duplicate {noun} {row[field][0]}")


def save_graph(graph: Graph, path) -> None:
    """Edge list, one undirected edge per line, with a node-count header."""
    out = [f"# nodes {graph.node_count}"]
    out.extend(f"{i} {j} {fmt_float(w)}" for i, j, w in graph.edge_list())
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_graph(path) -> Graph:
    """Parse an edge list of as many nodes as the first ``# nodes N`` comment
    line gives, else the largest index + 1."""
    dtype = [("i", np.int64), ("j", np.int64), ("w", np.float64)]
    rows, text = _read_table(path, dtype, "'i j w'", error=GraphFormatError)
    edges = np.column_stack((rows["i"], rows["j"], rows["w"]))
    if header := _NODES.search(text):
        if not re.fullmatch(r"[+-]?[0-9]+", header[1]):
            line = text.count("\n", 0, header.start()) + 1
            raise GraphFormatError(f"{path}:{line}: expected '# nodes N', got N = {header[1]!r}")
        node_count = int(header[1])
    else:
        node_count = int(edges[:, :2].max()) + 1 if edges.size else 0
    if node_count < 1:
        raise GraphFormatError(f"{path}: no nodes")
    return Graph.from_edges(node_count, edges)


def save_labels(labels: LabelSet, path) -> None:
    out = [f"{int(i)} {int(v)}" for i, v in zip(labels.indices, labels.values)]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_labels(path) -> LabelSet:
    rows, _ = _read_table(path, [("i", np.int64), ("y", np.int64)], "'i y' with y 0 or 1",
                          lambda r: np.isin(r["y"], (0, 1)).all(), unique=("i", "node"))
    return LabelSet(rows["i"], rows["y"])


def save_features(features: np.ndarray, path) -> None:
    rows = np.asarray(features, dtype=np.float64)
    out = [" ".join(fmt_float(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_features(path) -> np.ndarray:
    x, _ = _read_table(path, np.float64, "'x_1 ... x_d' with finite values",
                       lambda rows: np.isfinite(rows).all(), commas=True)
    if len(x) == 0:
        raise ValueError(f"{path}: no feature rows")
    return x


def save_votes(votes: WeakVoteMatrix, path) -> None:
    out = [" ".join(str(int(v)) for v in row) for row in votes.votes]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_votes(path) -> WeakVoteMatrix:
    votes, _ = _read_table(path, np.int64, "'v_1 ... v_k' with votes 0, 1 or -1",
                           lambda v: np.isin(v, (0, 1, ABSTAIN)).all(), commas=True)
    if len(votes) == 0:
        raise ValueError(f"{path}: no vote rows")
    return WeakVoteMatrix(votes)


def save_accuracies(acc: LabelerAccuracy, path) -> None:
    out = [f"{j} {fmt_float(p)}" for j, p in enumerate(acc.p)]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_accuracies(path) -> LabelerAccuracy:
    rows, _ = _read_table(path, [("j", np.int64), ("p", np.float64)], "'j p_j'",
                          unique=("j", "labeler"))
    j = rows["j"]
    if j.size == 0 or not np.array_equal(np.sort(j), np.arange(j.size)):
        raise ValueError(f"{path}: labeler ids must be 0..k-1")
    return LabelerAccuracy(rows["p"][np.argsort(j)])


def save_prediction(prediction: Prediction, path) -> None:
    """Lines ``i f_i flag`` with flag in ok/unreachable/nonconverged."""
    f = prediction.f.tolist()
    out = map("{} {:.17g} {}".format, range(len(f)), f, prediction.flag_names())
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_prediction(path) -> tuple[np.ndarray, list[str]]:
    form = f"'i f flag' with flag one of {', '.join(_FLAGS)}"
    rows, _ = _read_table(path, _PREDICTION, form, lambda r: np.isin(r["flag"], _FLAGS).all(),
                          unique=("i", "node"))
    i = rows["i"]
    if not np.array_equal(np.sort(i), np.arange(i.size)):
        raise ValueError(f"{path}: node ids must be 0..n-1")
    order = np.argsort(i)
    return rows["f"][order], rows["flag"][order].tolist()
