"""What a fresh interpreter loads: the kd-tree module only where a tree is built.

``scipy.spatial`` (which pulls in ``scipy.special``) is imported inside
``build_threshold_graph`` and ``_knn_mean``, the two functions that build a
kd-tree, so importing the package and running ``propagate`` or ``analyze`` on
an edge list never load it. Each case runs in its own subprocess, because the
test process has loaded it long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import priorprop as pp
from priorprop import fileio
from priorprop.evaluation import SyntheticSpec, generate_clusters, generate_weak_labelers

SRC = Path(__file__).resolve().parents[1] / "src"
KD_TREE_MODULES = ("scipy.spatial", "scipy.special")

# runs one statement, then prints which kd-tree modules are loaded
PROBE = """
import sys
{statement}
print(*[name for name in {modules!r} if name in sys.modules], sep=",")
"""
RUN_MAIN = "from priorprop.cli import main; assert main(sys.argv[1:]) == 0"


def loaded_kd_modules(statement: str, *argv) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = PROBE.format(statement=statement, modules=KD_TREE_MODULES)
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1] if done.stdout.strip() else ""
    return [name for name in last.split(",") if name]


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """Features, edge list, labels, truth and votes of a small two-cluster instance."""
    root = tmp_path_factory.mktemp("startup")
    spec = SyntheticSpec(points_per_cluster=20, labeled_count=6, seed=5)
    feats, y = generate_clusters(spec)
    votes = generate_weak_labelers(y, spec.labeler_accuracies, spec.labeler_coverages, 9)
    fileio.save_features(feats, root / "features.txt")
    fileio.save_graph(pp.build_threshold_graph(feats, 6.0), root / "graph.txt")
    fileio.save_labels(pp.LabelSet(np.arange(y.size), y), root / "truth.txt")
    lab = [0, 1, 2, 20, 21, 22]
    fileio.save_labels(pp.LabelSet(lab, y[lab]), root / "labels.txt")
    fileio.save_votes(votes, root / "votes.txt")
    return root


def inputs(root, *names):
    return [arg for name in names for arg in (f"--{name}", root / f"{name}.txt")]


@pytest.mark.parametrize("module", ["priorprop", "priorprop.cli"])
def test_import_loads_no_kd_tree(module):
    assert loaded_kd_modules(f"import {module}") == []


@pytest.mark.parametrize("command, extra", [
    ("propagate", ["--method", "direct"]),
    ("propagate", ["--method", "iterative"]),
    ("analyze", []),
], ids=["propagate-direct", "propagate-iterative", "analyze"])
def test_edge_list_jobs_load_no_kd_tree(instance, command, extra):
    argv = [command, *inputs(instance, "graph", "labels", "truth", "votes"), *extra,
            "--output", instance / f"{command}-out.txt"]
    assert loaded_kd_modules(RUN_MAIN, *argv) == []


@pytest.mark.parametrize("argv", [
    ["build-graph", "--features", "features.txt", "--t", "6", "--output", "built.txt"],
    ["propagate", "--features", "features.txt", "--t", "6", "--labels", "labels.txt",
     "--output", "features-out.txt"],
    ["propagate", "--features", "features.txt", "--t", "6", "--labels", "labels.txt",
     "--votes", "votes.txt", "--alpha-scheme", "probabilistic",
     "--output", "probabilistic-out.txt"],
], ids=["build-graph", "features", "probabilistic"])
def test_kd_tree_jobs_load_it_and_succeed(instance, argv):
    argv = [instance / arg if arg.endswith(".txt") else arg for arg in argv]
    assert "scipy.spatial" in loaded_kd_modules(RUN_MAIN, *argv)
