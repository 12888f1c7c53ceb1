import re
from pathlib import Path

import numpy as np

from priorprop.evaluation import SyntheticSpec, generate_clusters, generate_weak_labelers

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_runs():
    """The README's "Library entry points" block runs as written, given the
    inputs it leaves to the reader."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library entry points\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert block, "README has no python block under 'Library entry points'"
    spec = SyntheticSpec(points_per_cluster=60, seed=5)
    features, truth = generate_clusters(spec)
    votes = generate_weak_labelers(truth, spec.labeler_accuracies, spec.labeler_coverages, 6)
    namespace = {
        "features": features,
        "truth": truth,
        "vote_matrix": votes.votes,
        "h": np.linspace(0.0, 1.0, truth.size),
        "mu": np.full(truth.size, 0.5),
    }
    exec(compile(block[1], f"{README}:Library entry points", "exec"), namespace)
    assert namespace["stats"].graph is namespace["g"]
    assert namespace["report"].stats is namespace["stats"]
