"""Metamorphic tests of ``analyze --votes``: relabeling the nodes or swapping
the two classes describes the same problem, so the report must not change.

Each per-hop row and ``lambda1`` must agree to a relative 1e-9 (the sums run
over the nodes in another order), and every audit family must hold as many
checks with as many failures. ``worst_at`` is not compared: margins that tie
to rounding can pick another node.
"""

import json
import math

import numpy as np
import pytest

import priorprop as pp
from priorprop import fileio
from priorprop.cli import main
from priorprop.evaluation import generate_weak_labelers

RTOL = 1e-9


def _instance(seed=3, n=900):
    """A connected 2-D geometric graph with random weights, a noisy
    half-plane truth, three weak labelers and 40 class-balanced labels."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 2))
    truth = (x[:, 0] + 0.1 * rng.standard_normal(n) > 0.5).astype(np.int8)
    weights = {(i, j): rng.uniform(0.2, 2.0) for i, j, _ in
               pp.build_threshold_graph(x, 8.0).edge_list()}
    # a path through the nodes in feature order keeps the graph connected
    order = np.argsort(x[:, 0])
    for i, j in zip(order[:-1].tolist(), order[1:].tolist()):
        weights.setdefault((min(i, j), max(i, j)), 0.5)
    edges = np.array([(i, j, w) for (i, j), w in weights.items()])
    votes = generate_weak_labelers(truth, (0.8, 0.7, 0.65), (0.6, 0.5, 0.7), seed + 1).votes
    labeled = np.concatenate([rng.choice(np.flatnonzero(truth == c), 20, replace=False)
                              for c in (0, 1)])
    return n, edges, truth, votes, labeled


def _analyze(tmp_path, name, n, edges, truth, votes, labeled):
    run_dir = tmp_path / name
    run_dir.mkdir()
    fileio.save_graph(pp.Graph.from_edges(n, edges), run_dir / "g.txt")
    fileio.save_labels(pp.LabelSet(labeled, truth[labeled]), run_dir / "labels.txt")
    fileio.save_labels(pp.LabelSet(np.arange(n), truth), run_dir / "truth.txt")
    fileio.save_votes(pp.WeakVoteMatrix(votes), run_dir / "votes.txt")
    argv = ["analyze", "--graph", run_dir / "g.txt", "--labels", run_dir / "labels.txt",
            "--truth", run_dir / "truth.txt", "--votes", run_dir / "votes.txt",
            "--output", run_dir / "r.json"]
    assert main([str(a) for a in argv]) == 0
    return json.loads((run_dir / "r.json").read_text())


def _permuted(n, edges, truth, votes, labeled, rng):
    perm = rng.permutation(n)  # node i becomes node perm[i]
    moved = edges.copy()
    moved[:, :2] = perm[edges[:, :2].astype(np.int64)]
    inverse = np.argsort(perm)
    return n, moved, truth[inverse], votes[inverse], perm[labeled]


def _class_swapped(n, edges, truth, votes, labeled, rng):
    swapped = np.where(votes < 0, votes, 1 - votes).astype(votes.dtype)
    return n, edges, 1 - truth, swapped, labeled


def _assert_same_report(got, want):
    assert len(got["bound_report"]["hops"]) == len(want["bound_report"]["hops"])
    for row, ref in zip(got["bound_report"]["hops"], want["bound_report"]["hops"]):
        assert row.keys() == ref.keys()
        for key, value in ref.items():
            if isinstance(value, float) and row[key] is not None:
                assert math.isclose(row[key], value, rel_tol=RTOL), (row["hop"], key)
            else:
                assert row[key] == value, (row["hop"], key)
    lam, ref_lam = got["spectral_report"]["lambda1"], want["spectral_report"]["lambda1"]
    assert ref_lam > 0 and math.isclose(lam, ref_lam, rel_tol=RTOL)
    families = {name: (f["count"], f["failed"]) for name, f in got["audit"]["families"].items()}
    assert families == {name: (f["count"], f["failed"])
                        for name, f in want["audit"]["families"].items()}


@pytest.mark.parametrize("transform", [_permuted, _class_swapped], ids=["permute", "class-swap"])
def test_analyze_with_votes_is_invariant(tmp_path, transform):
    instance = _instance()
    want = _analyze(tmp_path, "original", *instance)
    got = _analyze(tmp_path, "transformed", *transform(*instance, np.random.default_rng(9)))
    assert len(want["bound_report"]["hops"]) >= 3
    _assert_same_report(got, want)
