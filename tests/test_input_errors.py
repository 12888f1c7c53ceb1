"""Malformed inputs at the public entry points each name what is wrong."""

import numpy as np
import pytest

import priorprop as pp
from priorprop.cli import main
from priorprop.evaluation import SyntheticSpec, generate_weak_labelers, pipeline_report

SMALL = dict(points_per_cluster=10, labeled_count=4)
PATH = pp.Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
TWO_LABELERS = pp.WeakVoteMatrix([[0, 1], [1, -1]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: pp.evaluate(np.zeros((2, 2)), [0, 1, 0, 1]), ValueError,
     "prediction and truth sizes differ"),
    (lambda: pp.evaluate(np.zeros(4), [0, 1, 0]), ValueError, "true labels must cover every node"),
    (lambda: SyntheticSpec(labeler_accuracies=(0.8,), labeler_coverages=(1.5,)), ValueError,
     r"labeler coverages must lie in \[0, 1\]"),
    (lambda: generate_weak_labelers([0, 1], [0.7, 0.8], [0.5], 0), ValueError,
     "accuracies and coverages must be equal-length 1-D sequences"),
    (lambda: generate_weak_labelers([0, 1], [1.0], [0.5], 0), ValueError,
     r"accuracies in \(0,1\), coverages in \[0,1\] required"),
    (lambda: pipeline_report(SyntheticSpec(cluster_count=1, **SMALL)), ValueError,
     "not enough points in a class to label"),
    (lambda: pipeline_report(SyntheticSpec(**SMALL), methods=("wl",)).result("lpa"), KeyError,
     "'lpa'"),
    (lambda: pp.LabelSet([0, 1], [1]), ValueError,
     "indices and values must be 1-D and equally long"),
    (lambda: pp.WeakVoteMatrix(np.zeros((2, 0))), ValueError,
     r"votes must be a \(node_count, k\) matrix with k >= 1"),
    (lambda: pp.LabelerAccuracy([[0.5]]), ValueError, "p must be 1-D"),
    (lambda: pp.alpha_accuracy(TWO_LABELERS, pp.LabelerAccuracy([0.5])), ValueError,
     "accuracy vector does not match labeler count"),
    (lambda: pp.alpha_boosting(TWO_LABELERS, pp.LabelerAccuracy([0.5])), ValueError,
     "accuracy vector does not match labeler count"),
    (lambda: pp.objective_value(PATH, pp.LabelSet([0], [1]), pp.PriorField.constant(3),
                                np.ones(2)), ValueError, "f has wrong length"),
], ids=["2d-prediction", "short-truth", "coverage", "labeler-lengths", "labeler-accuracy",
        "one-cluster", "method-not-run", "label-lengths", "no-labeler", "2d-accuracy",
        "accuracy-length", "boosting-length", "objective-length"])
def test_malformed_input_is_rejected_with_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field, flag", [("mu", "--mu"), ("separation", "--separation"),
                                         ("noise_scale", "--noise")])
def test_non_finite_spec_field_is_rejected_naming_it(field, flag, value, tmp_path, capsys):
    message = f"{field} must be finite, got {value!r}"
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(**{field: value})
    out = tmp_path / "d.json"
    assert main(["demo", "--methods", "lpa", f"{flag}={value!r}", "--output", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_one_dimensional_features_and_a_one_node_problem_are_accepted():
    x = np.array([0.0, 0.1, 0.3, 0.35, 2.0])
    edges = pp.build_threshold_graph(x, 2.0).edge_list()
    assert edges and edges == pp.build_threshold_graph(x[:, None], 2.0).edge_list()
    # one node, labeled and voted on correctly: its residual is the floor alone
    votes = pp.WeakVoteMatrix([[1]])
    alpha = pp.alpha_probabilistic(votes, np.zeros((1, 2)), pp.LabelSet([0], [1]))
    assert alpha[0, 0] == pytest.approx(1.0 / pp.multisource.RESIDUAL_FLOOR, rel=1e-12)
