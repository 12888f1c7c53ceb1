import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import priorprop as pp
import priorprop.solver as solver_mod
from priorprop import fileio
from priorprop.cli import build_parser, main
from priorprop.evaluation import (
    DEFAULT_EPSILON,
    SyntheticSpec,
    generate_clusters,
    generate_weak_labelers,
)
from priorprop.multisource import ALPHA_SCHEMES
from priorprop.solver import factor_spd

from oracles import anchor_graph_solve, geometric_graph

DATA = Path(__file__).parent / "data"
BENCHMARK = Path(__file__).parents[1] / "perfbench"


@pytest.fixture()
def workspace(tmp_path):
    """Features, truth, labels and votes for a small two-cluster instance."""
    spec = SyntheticSpec(points_per_cluster=30, labeled_count=10, seed=11,
                         graph_degree_target=6.0)
    feats, y = generate_clusters(spec)
    votes = generate_weak_labelers(y, spec.labeler_accuracies, spec.labeler_coverages, 21)
    fileio.save_features(feats, tmp_path / "features.txt")
    fileio.save_labels(pp.LabelSet(np.arange(y.size), y), tmp_path / "truth.txt")
    lab = [0, 1, 2, 3, 30, 31, 32, 33]
    fileio.save_labels(pp.LabelSet(lab, y[lab]), tmp_path / "labels.txt")
    fileio.save_votes(votes, tmp_path / "votes.txt")
    main(["build-graph", "--features", str(tmp_path / "features.txt"), "--t", "6",
          "--output", str(tmp_path / "graph.txt")])
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestBuildGraph:
    def test_average_degree_near_target(self, tmp_path, capsys):
        feats = np.random.default_rng(0).normal(size=(300, 4))
        fileio.save_features(feats, tmp_path / "f.txt")
        code = run(["build-graph", "--features", tmp_path / "f.txt", "--t", "10",
                    "--output", tmp_path / "g.txt"])
        assert code == 0
        g = fileio.load_graph(tmp_path / "g.txt")
        assert abs(pp.average_degree(g) - 10.0) < 2.0
        assert "average degree" in capsys.readouterr().out

    def test_missing_t_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["build-graph", "--features", tmp_path / "f.txt",
                 "--output", tmp_path / "g.txt"])
        assert exc.value.code == 2

    def test_two_point_input_matches_percentile_rule(self, tmp_path):
        fileio.save_features(np.array([[0.0], [1.0]]), tmp_path / "f.txt")
        code = run(["build-graph", "--features", tmp_path / "f.txt", "--t", "1",
                    "--output", tmp_path / "g.txt"])
        assert code == 0
        g = fileio.load_graph(tmp_path / "g.txt")
        # oracle: pool = [0, 0, 1, 1], quantile(1/2) = 0.5, edge iff 1 < 0.5
        pool = np.array([0.0, 0.0, 1.0, 1.0])
        tau = np.quantile(pool, 0.5)
        assert g.edge_count == (1 if 1.0 < tau else 0)

    def test_bad_input_file_exits_2(self, tmp_path, capsys):
        assert run(["build-graph", "--features", tmp_path / "missing.txt", "--t", "2",
                    "--output", tmp_path / "g.txt"]) == 2
        assert "error" in capsys.readouterr().err


class TestPropagate:
    def test_mu_zero_byte_identical_to_standard(self, workspace):
        args = ["propagate", "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt"]
        assert run(args + ["--mu", "0", "--output", workspace / "a.txt"]) == 0
        # --mu defaults to 0 without --votes
        assert run(args + ["--output", workspace / "default.txt"]) == 0
        graph = fileio.load_graph(workspace / "graph.txt")
        labels = fileio.load_labels(workspace / "labels.txt")
        pred = pp.solve_standard(graph, labels)
        fileio.save_prediction(pred, workspace / "b.txt")
        assert (workspace / "a.txt").read_bytes() == (workspace / "b.txt").read_bytes()
        assert (workspace / "default.txt").read_bytes() == (workspace / "b.txt").read_bytes()

    def test_constant_alpha_zero_matches_standard(self, workspace):
        run(["propagate", "--graph", workspace / "graph.txt",
             "--labels", workspace / "labels.txt", "--votes", workspace / "votes.txt",
             "--alpha-scheme", "constant", "--alpha-constant", "0",
             "--output", workspace / "z.txt"])
        run(["propagate", "--graph", workspace / "graph.txt",
             "--labels", workspace / "labels.txt", "--output", workspace / "s.txt"])
        fz, _ = fileio.load_prediction(workspace / "z.txt")
        fs, _ = fileio.load_prediction(workspace / "s.txt")
        assert np.max(np.abs(fz - fs)) < 1e-8

    def test_repeat_runs_byte_identical(self, workspace):
        args = ["propagate", "--features", workspace / "features.txt", "--t", "6",
                "--labels", workspace / "labels.txt", "--votes", workspace / "votes.txt",
                "--truth", workspace / "truth.txt", "--output", workspace / "p.txt"]
        assert run(args) == 0
        first = (workspace / "p.txt").read_bytes()
        first_metrics = (workspace / "p.txt.metrics.json").read_bytes()
        assert run(args) == 0
        assert (workspace / "p.txt").read_bytes() == first
        assert (workspace / "p.txt.metrics.json").read_bytes() == first_metrics

    def test_soft_mode(self, workspace):
        assert run(["propagate", "--graph", workspace / "graph.txt",
                    "--labels", workspace / "labels.txt", "--eta", "1.0",
                    "--output", workspace / "soft.txt"]) == 0
        f, flags = fileio.load_prediction(workspace / "soft.txt")
        assert f.size == 60

    @pytest.mark.parametrize(
        "line", ["0.7 1 1.0", "0 nan 1.0", "0 1 abc", "0 1", "0 1 1.0 2.0"],
        ids=["fractional-endpoint", "nan-endpoint", "non-numeric-weight", "short", "long"],
    )
    def test_malformed_edge_line_exits_2(self, workspace, capsys, line):
        bad = workspace / "bad_graph.txt"
        bad.write_text(f"# nodes 60\n0 2 1.0\n{line}\n")
        assert run(["propagate", "--graph", bad, "--labels", workspace / "labels.txt",
                    "--output", workspace / "x.txt"]) == 2
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_node_count_above_the_key_limit_exits_2(self, workspace, capsys):
        bad = workspace / "huge_graph.txt"
        bad.write_text("# nodes 3037000500\n0 1 1.0\n")
        assert run(["propagate", "--graph", bad, "--labels", workspace / "labels.txt",
                    "--output", workspace / "x.txt"]) == 2
        assert "node_count 3037000500 exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["direct", "iterative"])
    def test_votes_match_anchor_graph_solve(self, workspace, method):
        out = workspace / f"votes-{method}.txt"
        assert run(["propagate", "--graph", workspace / "graph.txt",
                    "--labels", workspace / "labels.txt", "--votes", workspace / "votes.txt",
                    "--method", method, "--output", out]) == 0
        graph = fileio.load_graph(workspace / "graph.txt")
        labels = fileio.load_labels(workspace / "labels.txt")
        votes = fileio.load_votes(workspace / "votes.txt")
        alpha = pp.alpha_accuracy(votes, pp.estimate_accuracy_from_labeled(votes, labels))
        config = pp.SolverConfig(method=method)
        ref = anchor_graph_solve(graph, labels, votes, alpha, config)
        f, _ = fileio.load_prediction(out)
        assert np.max(np.abs(f - ref)) < (1e-8 if method == "direct" else config.tolerance)

    def test_soft_mode_honours_solver_flags(self, workspace, capsys):
        args = ["propagate", "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt", "--eta", "1.0"]
        assert run(args + ["--output", workspace / "direct.txt"]) == 0
        assert "method=direct" in capsys.readouterr().out
        assert run(args + ["--method", "iterative", "--output", workspace / "iter.txt"]) == 0
        assert "method=iterative" in capsys.readouterr().out
        f_direct, _ = fileio.load_prediction(workspace / "direct.txt")
        f_iter, _ = fileio.load_prediction(workspace / "iter.txt")
        # the Gauss-Seidel stop rule certifies an error of about 5 x tolerance
        # (residual <= 5 tol (1 - rho)), and this soft problem contracts slowly
        # (~800 sweeps); the factor 2 covers the estimate of rho
        assert np.max(np.abs(f_iter - f_direct)) < 10 * pp.SolverConfig().tolerance

    def test_eta_with_votes_rejected(self, workspace, capsys):
        args = ["propagate", "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt", "--eta", "1.0",
                "--output", workspace / "x.txt"]
        assert run(args + ["--votes", workspace / "votes.txt"]) == 2
        assert run(args + ["--mu", "5"]) == 2
        # the soft solve reads no --mu, so not even the default value
        assert run(args + ["--mu", "0"]) == 2
        assert "--eta (soft solve) cannot be combined" in capsys.readouterr().err
        assert not (workspace / "x.txt").exists()

    def test_overflowing_trust_total_exits_2_naming_the_node(self, workspace, capsys):
        votes = fileio.load_votes(workspace / "votes.txt")
        node = int(np.flatnonzero(votes.cast_mask.sum(axis=1) >= 2)[0])
        assert run(["propagate", "--graph", workspace / "graph.txt",
                    "--labels", workspace / "labels.txt", "--votes", workspace / "votes.txt",
                    "--alpha-scheme", "constant", "--alpha-constant", "1e308",
                    "--output", workspace / "x.txt"]) == 2
        assert f"the trust total of node {node} is not finite" in capsys.readouterr().err
        assert not (workspace / "x.txt").exists()

    def test_features_without_t_exits_2(self, workspace, capsys):
        assert run(["propagate", "--features", workspace / "features.txt",
                    "--labels", workspace / "labels.txt", "--output", workspace / "x.txt"]) == 2
        assert "--features requires --t" in capsys.readouterr().err
        assert not (workspace / "x.txt").exists()

    def test_vote_matrix_of_another_size_exits_2(self, workspace, capsys):
        fileio.save_votes(pp.WeakVoteMatrix(np.ones((59, 2), dtype=np.int8)),
                          workspace / "short_votes.txt")
        assert run(["propagate", "--graph", workspace / "graph.txt",
                    "--labels", workspace / "labels.txt", "--votes", workspace / "short_votes.txt",
                    "--output", workspace / "x.txt"]) == 2
        assert "vote matrix does not match graph size" in capsys.readouterr().err
        assert not (workspace / "x.txt").exists()

    @pytest.mark.parametrize("scheme", ALPHA_SCHEMES)
    def test_votes_write_the_reduced_prior_solution(self, workspace, scheme):
        out = workspace / f"{scheme}.txt"
        if scheme == "probabilistic":
            inputs = ["--features", workspace / "features.txt", "--t", "6"]
        else:
            inputs = ["--graph", workspace / "graph.txt"]
        if scheme == "oracle":
            inputs += ["--truth", workspace / "truth.txt"]
        # each scheme is given the one option it reads; any other exits 2
        inputs += {"constant": ["--alpha-constant", "0.7"],
                   "probabilistic": ["--k-neighbors", "4"]}.get(scheme, [])
        assert run(["propagate", *inputs, "--labels", workspace / "labels.txt",
                    "--votes", workspace / "votes.txt", "--alpha-scheme", scheme,
                    "--output", out]) == 0
        feats = fileio.load_features(workspace / "features.txt")
        graph = pp.build_threshold_graph(feats, 6)
        assert graph.edge_list() == fileio.load_graph(workspace / "graph.txt").edge_list()
        labels = fileio.load_labels(workspace / "labels.txt")
        votes = fileio.load_votes(workspace / "votes.txt")
        truth = fileio.load_labels(workspace / "truth.txt").values
        acc = pp.estimate_accuracy_from_labeled(votes, labels)
        alpha = {
            "accuracy": lambda: pp.alpha_accuracy(votes, acc),
            "boosting": lambda: pp.alpha_boosting(votes, acc),
            "probabilistic": lambda: pp.alpha_probabilistic(votes, feats, labels, 4),
            "constant": lambda: pp.alpha_constant(votes, 0.7),
            "oracle": lambda: pp.alpha_oracle(votes, truth),
        }[scheme]()
        prior = pp.reduce_to_single_prior(votes, alpha)
        fileio.save_prediction(pp.solve_with_prior(graph, labels, prior), workspace / "ref.txt")
        assert out.read_bytes() == (workspace / "ref.txt").read_bytes()

    @pytest.mark.parametrize("mu", ["-1", "nan"])
    def test_invalid_mu_rejected(self, workspace, capsys, mu):
        assert run(["propagate", "--graph", workspace / "graph.txt",
                    "--labels", workspace / "labels.txt", "--mu", mu,
                    "--output", workspace / "x.txt"]) == 2
        assert "prior weights mu" in capsys.readouterr().err
        assert not (workspace / "x.txt").exists()

    def test_both_graph_and_features_rejected(self, workspace):
        assert run(["propagate", "--graph", workspace / "graph.txt",
                    "--features", workspace / "features.txt", "--t", "6",
                    "--labels", workspace / "labels.txt",
                    "--output", workspace / "x.txt"]) == 2

    def test_metrics_identity_in_output(self, workspace):
        run(["propagate", "--graph", workspace / "graph.txt",
             "--labels", workspace / "labels.txt", "--truth", workspace / "truth.txt",
             "--output", workspace / "m.txt"])
        metrics = json.loads((workspace / "m.txt.metrics.json").read_text())
        assert metrics["accuracy"] == pytest.approx(
            metrics["coverage"] * metrics["non_abstain_accuracy"]
            + (1 - metrics["coverage"]) * 0.5
        )


@pytest.mark.parametrize("command", ["propagate", "analyze"])
@pytest.mark.parametrize("bad_line", ["-1 0", "4 0"], ids=["negative", "out-of-range"])
def test_truth_index_outside_graph_exits_2(tmp_path, capsys, command, bad_line):
    fileio.save_graph(pp.Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]),
                      tmp_path / "g.txt")
    fileio.save_labels(pp.LabelSet([1, 2], [1, 1]), tmp_path / "labels.txt")
    (tmp_path / "truth.txt").write_text(f"{bad_line}\n1 1\n2 1\n3 0\n")
    code = run([command, "--graph", tmp_path / "g.txt", "--labels", tmp_path / "labels.txt",
                "--truth", tmp_path / "truth.txt", "--output", tmp_path / "out.txt"])
    assert code == 2
    assert "labeled index" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("flag", ["--labels", "--truth"])
def test_repeated_label_names_the_file(workspace, capsys, flag):
    bad = workspace / "bad.txt"
    bad.write_text("0 1\n0 1\n")
    inputs = {"--labels": workspace / "labels.txt", "--truth": workspace / "truth.txt", flag: bad}
    argv = ["propagate", "--graph", workspace / "graph.txt", "--output", workspace / "out.txt"]
    for name, value in inputs.items():
        argv += [name, value]
    assert run(argv) == 2
    assert f"{bad}:2: duplicate node 0" in capsys.readouterr().err
    assert not (workspace / "out.txt").exists()


@pytest.mark.parametrize("extra", [
    ["propagate"],
    ["propagate", "--mu", "1"],
    ["propagate", "--eta", "1"],
    ["propagate", "--votes", "votes.txt", "--alpha-scheme", "constant"],
    ["analyze", "--truth", "truth.txt"],
], ids=["plain", "mu", "eta", "votes-constant", "analyze"])
def test_empty_labels_exit_2(workspace, capsys, extra):
    (workspace / "empty.txt").write_text("")
    argv = [workspace / a if a.endswith(".txt") else a for a in extra]
    code = run(argv + ["--graph", workspace / "graph.txt", "--labels", workspace / "empty.txt",
                       "--output", workspace / "out.txt"])
    assert code == 2
    assert "at least one labeled node is required" in capsys.readouterr().err
    assert not (workspace / "out.txt").exists()


@pytest.mark.parametrize("flag, text", [
    ("--graph", "# nodes 60\n0 2 1.0\n0 3 heavy\n"),
    ("--labels", "0 1\n1 1\n2 one\n"),
    ("--truth", "0 1\n1 1\n2 one\n"),
    ("--votes", "0 1 1\n1 1 1\n1 yes 0\n"),
    ("--features", "0.0 0.0\n1.0 0.5\n1.0 abc\n"),
    ("--accuracies", "0 0.8\n1 0.7\n2 high\n"),
], ids=["graph", "labels", "truth", "votes", "features", "accuracies"])
def test_non_numeric_token_names_path_and_line(workspace, capsys, flag, text):
    bad = workspace / "bad.txt"
    bad.write_text(text)
    inputs = {"--graph": workspace / "graph.txt", "--labels": workspace / "labels.txt",
              "--truth": workspace / "truth.txt"}
    if flag in ("--votes", "--accuracies"):
        inputs["--votes"] = workspace / "votes.txt"
    if flag == "--features":
        del inputs["--graph"]
        inputs["--t"] = "6"
    inputs[flag] = bad
    argv = ["propagate", "--output", workspace / "out.txt"]
    for name, value in inputs.items():
        argv += [name, value]
    assert run(argv) == 2
    assert f"{bad}:3:" in capsys.readouterr().err
    assert not (workspace / "out.txt").exists()
    assert not (workspace / "out.txt.metrics.json").exists()


@pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
def test_invalid_epsilon_exits_2_before_writing(workspace, capsys, epsilon):
    code = run(["propagate", "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt", "--truth", workspace / "truth.txt",
                "--epsilon", epsilon, "--output", workspace / "out.txt"])
    assert code == 2
    captured = capsys.readouterr()
    assert "epsilon must be finite and non-negative" in captured.err
    assert "wrote" not in captured.out
    assert not (workspace / "out.txt").exists()
    assert not (workspace / "out.txt.metrics.json").exists()


@pytest.mark.parametrize("flags", [
    ["--metrics-output", "m.json"],
    ["--epsilon", "0.2"],
    ["--metrics-output", "m.json", "--epsilon", "0.2"],
], ids=["metrics-output", "epsilon", "both"])
def test_metrics_flags_without_truth_exit_2(workspace, capsys, flags):
    # without --truth no metrics are written, so these flags would be ignored
    code = run(["propagate", "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt",
                *[workspace / a if a.endswith(".json") else a for a in flags],
                "--output", workspace / "out.txt"])
    assert code == 2
    given = ", ".join(a for a in flags if a.startswith("--"))
    assert f"--truth is required by {given}" in capsys.readouterr().err
    assert not (workspace / "out.txt").exists()


def test_metrics_epsilon_defaults_with_truth(workspace):
    args = ["propagate", "--graph", workspace / "graph.txt", "--labels", workspace / "labels.txt",
            "--truth", workspace / "truth.txt", "--output", workspace / "out.txt"]
    assert run(args + ["--metrics-output", workspace / "m.json"]) == 0
    metrics = json.loads((workspace / "m.json").read_text())
    assert metrics["abstain_epsilon"] == DEFAULT_EPSILON
    assert run(args + ["--epsilon", "0.2"]) == 0
    metrics = json.loads((workspace / "out.txt.metrics.json").read_text())
    assert metrics["abstain_epsilon"] == 0.2


@pytest.mark.parametrize("tolerance", ["inf", "nan", "0"])
def test_invalid_tolerance_exits_2_before_writing(workspace, capsys, tolerance):
    code = run(["propagate", "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt", "--method", "iterative",
                "--tolerance", tolerance, "--output", workspace / "out.txt"])
    assert code == 2
    captured = capsys.readouterr()
    assert "tolerance must be positive and finite" in captured.err
    assert "wrote" not in captured.out
    assert not (workspace / "out.txt").exists()


@pytest.mark.parametrize("command", ["propagate", "analyze", "propagate-eta"])
@pytest.mark.parametrize("method", [[], ["--method", "direct"]], ids=["default", "direct"])
@pytest.mark.parametrize("flags", [
    ["--tolerance", "1e-3"],
    ["--max-iterations", "5"],
    ["--tolerance", "1e-3", "--max-iterations", "5"],
], ids=["tolerance", "max-iterations", "both"])
def test_iterative_flags_without_iterative_method_exit_2(workspace, capsys, command, method,
                                                         flags):
    # the direct method has no tolerance and no iteration cap to apply them to
    extra = ["--eta", "1"] if command == "propagate-eta" else []
    code = run([command.split("-")[0], "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt", "--truth", workspace / "truth.txt",
                *method, *flags, *extra, "--output", workspace / "out.txt"])
    assert code == 2
    given = ", ".join(a for a in flags if a.startswith("--"))
    assert f"--method iterative is required by {given}" in capsys.readouterr().err
    assert not (workspace / "out.txt").exists()


def test_iterative_flags_reach_the_solver(workspace, capsys):
    args = ["propagate", "--graph", workspace / "graph.txt", "--labels", workspace / "labels.txt",
            "--method", "iterative", "--output", workspace / "out.txt"]
    assert run(args + ["--max-iterations", "1"]) == 0
    assert "converged=False" in capsys.readouterr().out
    assert run(args + ["--tolerance", "1e-3"]) == 0
    loose, _ = fileio.load_prediction(workspace / "out.txt")
    assert run(args) == 0
    assert "converged=True" in capsys.readouterr().out
    tight, _ = fileio.load_prediction(workspace / "out.txt")
    assert 1e-6 < np.max(np.abs(loose - tight)) < 1e-2


@pytest.mark.parametrize("command", ["propagate", "analyze"])
@pytest.mark.parametrize("mu", ["0", "1"])
def test_votes_with_explicit_mu_exit_2(workspace, capsys, command, mu):
    code = run([command, "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt", "--truth", workspace / "truth.txt",
                "--votes", workspace / "votes.txt", "--mu", mu,
                "--output", workspace / "out.txt"])
    assert code == 2
    assert "--mu cannot be combined with --votes" in capsys.readouterr().err
    assert not (workspace / "out.txt").exists()


@pytest.mark.parametrize("command", ["propagate", "analyze", "propagate-eta"])
@pytest.mark.parametrize("flags", [
    ["--accuracies", "acc.txt"],
    ["--alpha-scheme", "accuracy"],
    ["--alpha-constant", "1"],
    ["--alpha-scheme", "probabilistic", "--k-neighbors", "10"],
], ids=["accuracies", "alpha-scheme", "alpha-constant", "k-neighbors"])
def test_vote_flags_without_votes_exit_2(workspace, capsys, command, flags):
    (workspace / "acc.txt").write_text("0.8\n0.8\n0.8\n")
    extra = ["--eta", "1"] if command == "propagate-eta" else []
    code = run([command.split("-")[0], "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt", "--truth", workspace / "truth.txt",
                *[workspace / a if a.endswith(".txt") else a for a in flags], *extra,
                "--output", workspace / "out.txt"])
    assert code == 2
    given = ", ".join(a for a in flags if a.startswith("--"))
    assert f"--votes is required by {given}" in capsys.readouterr().err
    assert not (workspace / "out.txt").exists()


@pytest.mark.parametrize("command", ["propagate", "analyze"])
@pytest.mark.parametrize("flags, needed", [
    (["--alpha-constant", "5"], "--alpha-scheme constant"),
    (["--k-neighbors", "3", "--alpha-scheme", "boosting"], "--alpha-scheme probabilistic"),
    (["--accuracies", "acc.txt", "--alpha-scheme", "constant"],
     "--alpha-scheme accuracy or boosting"),
    (["--t", "5"], "--features"),
], ids=["alpha-constant", "k-neighbors", "accuracies", "t"])
def test_flags_no_mode_reads_exit_2(workspace, capsys, command, flags, needed):
    (workspace / "acc.txt").write_text("0.8\n0.8\n0.8\n")
    code = run([command, "--graph", workspace / "graph.txt", "--labels", workspace / "labels.txt",
                "--truth", workspace / "truth.txt", "--votes", workspace / "votes.txt",
                *[workspace / a if a.endswith(".txt") else a for a in flags],
                "--output", workspace / "out.txt"])
    assert code == 2
    assert f"{needed} is required by {flags[0]}" in capsys.readouterr().err
    assert not (workspace / "out.txt").exists()


@pytest.mark.parametrize("scheme", ["constant", "probabilistic"])
def test_unset_vote_flags_take_vote_prior_defaults(workspace, scheme):
    out = workspace / "out.txt"
    assert run(["propagate", "--features", workspace / "features.txt", "--t", "6",
                "--labels", workspace / "labels.txt", "--votes", workspace / "votes.txt",
                "--alpha-scheme", scheme, "--output", out]) == 0
    feats = fileio.load_features(workspace / "features.txt")
    labels = fileio.load_labels(workspace / "labels.txt")
    prior = pp.vote_prior(fileio.load_votes(workspace / "votes.txt"), scheme, labels,
                          features=feats)
    pred = pp.solve_with_prior(pp.build_threshold_graph(feats, 6), labels, prior)
    fileio.save_prediction(pred, workspace / "ref.txt")
    assert out.read_bytes() == (workspace / "ref.txt").read_bytes()


@pytest.mark.parametrize("command", [
    ["propagate", "--eta", "0.01"],
    ["analyze", "--truth", "truth.txt"],
], ids=["propagate-eta", "analyze"])
# 6 nodes take the dense route and 606 the sparse one
@pytest.mark.parametrize("n", [6, 606])
# analyze's first, hard solve is ill-conditioned but still solves
@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_numerically_singular_dense_solve_exits_2(tmp_path, capsys, command, n):
    # 1e18 edges swamp the unit ones: the soft system is singular in floats
    edges = "".join(f"{i} {i + 1} {1e18 if i < 2 else 1}\n" for i in range(n - 1))
    (tmp_path / "g.txt").write_text(f"# nodes {n}\n{edges}")
    truth = [f"{i} {int(2 * i >= n)}\n" for i in range(n)]
    # four labels, the fewest the spectral bound accepts, so analyze reaches its soft solve
    (tmp_path / "labels.txt").write_text("".join(truth[i] for i in (0, 3, 4, n - 1)))
    (tmp_path / "truth.txt").write_text("".join(truth))
    code = run([command[0], "--graph", tmp_path / "g.txt", "--labels", tmp_path / "labels.txt",
                *[tmp_path / a if a.endswith(".txt") else a for a in command[1:]],
                "--output", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"system of {n} unknowns is numerically singular" in err
    assert "(weighted degree plus prior weight) span 1.005 to 2e+18" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["propagate", "analyze"])
def test_weights_summing_past_the_float_range_exit_2(tmp_path, capsys, command):
    (tmp_path / "g.txt").write_text("# nodes 4\n0 1 1e308\n0 2 1e308\n1 3 1\n")
    (tmp_path / "labels.txt").write_text("0 1\n")
    (tmp_path / "truth.txt").write_text("0 1\n1 1\n2 1\n3 0\n")
    code = run([command, "--graph", tmp_path / "g.txt", "--labels", tmp_path / "labels.txt",
                "--truth", tmp_path / "truth.txt", "--output", tmp_path / "out"])
    assert code == 2
    assert "edge weights at node 0 sum past the float range" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def subcommand_actions(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._actions


def optional_flags(command):
    """The first option string of each optional flag of ``command``'s parser."""
    return [a.option_strings[0] for a in subcommand_actions(command)
            if a.option_strings and not a.required and not isinstance(a, argparse._HelpAction)]


# a value other than the default for every optional flag of propagate and
# analyze; a new flag must declare one here
FLAG_VALUES = {
    "--graph": "graph2.txt", "--features": "features2.txt", "--t": "4", "--mu": "0.5",
    "--votes": "votes2.txt", "--accuracies": "acc.txt", "--alpha-scheme": "boosting",
    "--alpha-constant": "0.3", "--k-neighbors": "3", "--eta": "0.5", "--truth": "truth.txt",
    "--epsilon": "0.2", "--method": "iterative", "--tolerance": "1e-3",
    "--max-iterations": "3", "--metrics-output": "m.json", "--delta": "0.2",
}
GRAPH = ["--graph", "graph.txt"]
VOTES = ["--votes", "votes.txt"]
PROBABILISTIC = ["--features", "features.txt", "--t", "6", *VOTES,
                 "--alpha-scheme", "probabilistic"]
# every mode that reads a different set of flags; a flag a mode sets is not tried in it
FLAG_MODES = {
    "propagate": [GRAPH, GRAPH + VOTES, GRAPH + VOTES + ["--alpha-scheme", "constant"],
                  PROBABILISTIC, ["--features", "features.txt", "--t", "6"],
                  GRAPH + ["--eta", "1"], GRAPH + ["--method", "iterative"],
                  GRAPH + ["--truth", "truth.txt"]],
    "analyze": [GRAPH, GRAPH + VOTES, PROBABILISTIC, GRAPH + ["--method", "iterative"]],
}


@pytest.mark.parametrize("command, mode", [(c, m) for c, modes in FLAG_MODES.items()
                                           for m in modes],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_every_flag_changes_the_output_or_exits_2(workspace, monkeypatch, capsys, command,
                                                  mode):
    """No flag of propagate or analyze is silently ignored in any mode."""
    spec = SyntheticSpec(points_per_cluster=30, labeled_count=10, seed=12)
    feats, y = generate_clusters(spec)
    fileio.save_features(feats, workspace / "features2.txt")
    fileio.save_graph(pp.build_threshold_graph(fileio.load_features(
        workspace / "features.txt"), 4), workspace / "graph2.txt")
    fileio.save_votes(generate_weak_labelers(y, (0.7, 0.9), (0.8, 0.8), 5),
                      workspace / "votes2.txt")
    (workspace / "acc.txt").write_text("0 0.95\n1 0.55\n2 0.7\n")
    base = [command, "--labels", "labels.txt", "--output", "out"]
    if command == "analyze":
        base += ["--truth", "truth.txt"]

    def outputs(extra):
        """The files one run writes, by name, or None when it exits 2."""
        run_dir = Path(tempfile.mkdtemp(dir=workspace))
        monkeypatch.chdir(run_dir)
        argv = [workspace / a if a.endswith(".txt") else a for a in base + mode + extra]
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        if code == 2:
            return None
        assert code == 0
        return {path.name: path.read_bytes() for path in run_dir.iterdir()}

    expected = outputs([])
    assert expected is not None
    for flag in optional_flags(command):
        assert flag in FLAG_VALUES, f"{command} {flag} declares no value to try"
        if flag in mode:
            continue
        got = outputs([flag, FLAG_VALUES[flag]])
        assert got != expected, f"{command} {' '.join(mode)} ignores {flag}"


@pytest.mark.parametrize("flag", ["--unreachable-fill", "--full-t", "--full-m", "--full-k"])
@pytest.mark.parametrize("command", ["propagate", "analyze"])
def test_removed_flags_are_not_flags(workspace, command, flag):
    with pytest.raises(SystemExit) as exc:
        run([command, "--graph", workspace / "graph.txt", "--labels", workspace / "labels.txt",
             "--truth", workspace / "truth.txt", flag, "2",
             "--output", workspace / "out.txt"])
    assert exc.value.code == 2


def float_flags(command):
    """The first option string of each float flag of ``command``'s parser."""
    return [a.option_strings[0] for a in subcommand_actions(command) if a.type is float]


# what each float flag of propagate and analyze needs besides the graph to be read
EXTREME_MODES = {
    "--epsilon": ["--truth", "truth.txt"],
    "--tolerance": ["--method", "iterative", "--max-iterations", "50"],
    "--alpha-constant": VOTES + ["--alpha-scheme", "constant"],
}


@pytest.mark.parametrize("command, flag", [(c, f) for c in ("propagate", "analyze", "demo")
                                           for f in float_flags(c)])
def test_extreme_float_flags_exit_0_or_2(workspace, monkeypatch, capsys, command, flag):
    """The smallest subnormal and a near-overflow value are input errors at
    worst, never internal ones, and a written spectral bound is null exactly
    when it is reported infinite."""
    monkeypatch.chdir(workspace)
    # a ring joins the workspace graph's components, so the spectral bound can be finite
    graph = fileio.load_graph("graph.txt")
    ring = [(i, (i + 1) % graph.node_count, 1.0) for i in range(graph.node_count)]
    fileio.save_graph(pp.Graph.from_edges(graph.node_count, [*graph.edge_list(), *ring]),
                      "connected.txt")
    if command == "demo":
        base = ["demo", "--points-per-cluster", "20", "--labeled", "8"]
    else:
        inputs = ["--features", "features.txt"] if flag == "--t" else ["--graph", "connected.txt"]
        base = [command, "--labels", "labels.txt", *inputs, *EXTREME_MODES.get(flag, [])]
        if command == "analyze":
            base += ["--truth", "truth.txt"]
    for value in ("5e-324", "1e308"):
        out = workspace / f"{command}{flag}{value}"
        code = run(base + [flag, value, "--output", out])
        assert code in (0, 2), capsys.readouterr().err
        if command == "analyze" and code == 0:
            spectral = json.loads(out.read_text())["spectral_report"]
            assert (spectral["bound"] is None) == (not spectral["finite"])


@pytest.mark.parametrize("command", ["propagate", "analyze"])
def test_eta_that_underflows_when_halved_exits_2_naming_it(workspace, capsys, command):
    out = workspace / "out.json"
    code = run([command, "--graph", workspace / "graph.txt", "--labels", workspace / "labels.txt",
                "--truth", workspace / "truth.txt", "--eta", "5e-324", "--output", out])
    assert code == 2
    assert "error: eta 5e-324 underflows to 0" in capsys.readouterr().err
    assert not out.exists()


class TestAnalyze:
    def test_smooth_fixture_zero_bound_column(self, tmp_path):
        feats = np.vstack([
            np.random.default_rng(1).normal(size=(20, 2)),
            np.random.default_rng(2).normal(size=(20, 2)) + 200.0,
        ])
        y = np.array([0] * 20 + [1] * 20, dtype=np.int8)
        fileio.save_features(feats, tmp_path / "f.txt")
        fileio.save_labels(pp.LabelSet(np.arange(40), y), tmp_path / "truth.txt")
        lab = [0, 1, 2, 3, 20, 21, 22, 23]
        fileio.save_labels(pp.LabelSet(lab, y[lab]), tmp_path / "labels.txt")
        # exact prior via oracle votes: a single always-correct full-coverage labeler
        votes = pp.WeakVoteMatrix(y[:, None])
        fileio.save_votes(votes, tmp_path / "votes.txt")
        code = run(["analyze", "--features", tmp_path / "f.txt", "--t", "5",
                    "--labels", tmp_path / "labels.txt", "--truth", tmp_path / "truth.txt",
                    "--votes", tmp_path / "votes.txt", "--alpha-scheme", "oracle",
                    "--output", tmp_path / "r.json"])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        for hop in report["bound_report"]["hops"]:
            assert hop["local_term"] == 0.0
            assert hop["informal_bound"] == 0.0
            assert hop["avg_error"] <= 1e-10
        assert report["audit"]["passed"] is True

    GOLDEN_ARGS = ["--mu", "0", "--method", "iterative", "--tolerance", "1e-30",
                   "--max-iterations", "40"]

    @staticmethod
    def write_golden_instance(path, seed=29):
        """A seeded instance whose 40-sweep analysis reaches every report branch.

        A random cluster hangs on four labels by weak edges, so 40 Gauss-Seidel
        sweeps leave it short of the optimum and the audit fails there. A path
        hangs on a fifth label with weights falling tenfold per hop; it reaches
        the float 1.0 within those sweeps, so its truth-1 hops have zero error
        (undefined ratios, informal fallback) and its two truth-0 hops end the
        layering with nonzero error.
        """
        rng = np.random.default_rng(seed)
        n = 24
        edges = {(i, j): rng.uniform(0.5, 2.0) for i in range(4, n) for j in range(i + 1, n)
                 if rng.random() < 0.5}
        for i in range(4):
            edges[(i, int(rng.integers(4, n)))] = 0.05
        for i in range(4, n - 1):
            edges.setdefault((i, i + 1), 1.0)
        y = [0, 1, 1, 1] + [int(v) for v in rng.random(n - 4) < 0.8]
        for k in range(1, 7):
            edges[(n + k - 1, n + k)] = 10.0 ** -k
        y += [1, 1, 1, 1, 1, 0, 0]
        g = pp.Graph.from_edges(len(y), [(i, j, w) for (i, j), w in edges.items()])
        fileio.save_graph(g, path / "g.txt")
        y = np.array(y, dtype=np.int8)
        fileio.save_labels(pp.LabelSet(np.arange(y.size), y), path / "truth.txt")
        lab = [0, 1, 2, 3, n]
        fileio.save_labels(pp.LabelSet(lab, y[lab]), path / "labels.txt")

    def test_reproduces_golden_file(self, tmp_path):
        self.write_golden_instance(tmp_path)
        out = tmp_path / "r.json"
        assert run(["analyze", "--graph", tmp_path / "g.txt", "--labels", tmp_path / "labels.txt",
                    "--truth", tmp_path / "truth.txt", *self.GOLDEN_ARGS, "--output", out]) == 0
        assert out.read_bytes() == (DATA / "analyze_golden.json").read_bytes()

    def test_prints_whether_the_solve_converged(self, tmp_path, capsys):
        # 40 sweeps to a tolerance of 1e-30 stop short of convergence
        self.write_golden_instance(tmp_path)
        out = tmp_path / "r.json"
        assert run(["analyze", "--graph", tmp_path / "g.txt", "--labels", tmp_path / "labels.txt",
                    "--truth", tmp_path / "truth.txt", *self.GOLDEN_ARGS, "--output", out]) == 0
        assert f"wrote {out}: converged=False audit_passed=False" in capsys.readouterr().out

    def test_disconnected_graph_flags_infinite_spectral(self, tmp_path):
        g = pp.Graph.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        fileio.save_graph(g, tmp_path / "g.txt")
        y = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        fileio.save_labels(pp.LabelSet(np.arange(6), y), tmp_path / "truth.txt")
        fileio.save_labels(pp.LabelSet([0, 2, 3, 5], y[[0, 2, 3, 5]]), tmp_path / "labels.txt")
        code = run(["analyze", "--graph", tmp_path / "g.txt",
                    "--labels", tmp_path / "labels.txt", "--truth", tmp_path / "truth.txt",
                    "--output", tmp_path / "r.json"])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["spectral_report"]["lambda1"] == 0.0
        assert report["spectral_report"]["finite"] is False
        assert report["spectral_report"]["bound"] is None

    @pytest.mark.parametrize("eta, factors", [([], 1), (["--eta", "10"], 1)],
                             ids=["default-eta", "eta-10"])
    def test_factors_the_graph_once_at_the_default_eta(self, tmp_path, monkeypatch, eta,
                                                        factors):
        # above DENSE_LIMIT, connected and 2-D: lambda_2 takes the shift-invert
        # route, and its factor preconditions the soft solve while eta / 2 <= R,
        # and at eta 10 too, where the solver's gate would factor the soft system
        g = pp.Graph.from_edges(600, geometric_graph(600, 2, 13.0, 1))
        assert solver_mod.factor_is_cheap(g)
        assert 0.01 / 2 <= g.rcm_profile[1] < 10 / 2
        truth = (np.arange(600) >= 300).astype(np.int8)
        idx = np.arange(0, 600, 75)
        fileio.save_graph(g, tmp_path / "g.txt")
        fileio.save_labels(pp.LabelSet(idx, truth[idx]), tmp_path / "labels.txt")
        fileio.save_labels(pp.LabelSet(np.arange(600), truth), tmp_path / "truth.txt")
        made = []

        def recording(a):
            made.append(a.shape)
            return factor_spd(a)

        monkeypatch.setattr(solver_mod, "factor_spd", recording)
        code = run(["analyze", "--graph", tmp_path / "g.txt", "--labels", tmp_path / "labels.txt",
                    "--truth", tmp_path / "truth.txt", *eta, "--output", tmp_path / "r.json"])
        assert code == 0
        assert made == [(600, 600)] * factors

    def test_report_reparses_and_is_deterministic(self, workspace):
        args = ["analyze", "--graph", workspace / "graph.txt",
                "--labels", workspace / "labels.txt", "--truth", workspace / "truth.txt",
                "--mu", "1", "--output", workspace / "r.json"]
        assert run(args) == 0
        text = (workspace / "r.json").read_bytes()
        parsed = json.loads(text)
        assert {"bound_report", "audit", "spectral_report"} <= set(parsed)
        assert run(args) == 0
        assert (workspace / "r.json").read_bytes() == text
        # --mu defaults to 1 without --votes
        assert run(args[:-4] + ["--output", workspace / "default.json"]) == 0
        assert (workspace / "default.json").read_bytes() == text

    def test_overflowing_hop_prior_total_exits_2_naming_the_hop(self, workspace, capsys):
        # every node's weight is finite, but hop 1's total overflows
        out = workspace / "r.json"
        code = run(["analyze", "--graph", workspace / "graph.txt",
                    "--labels", workspace / "labels.txt", "--truth", workspace / "truth.txt",
                    "--mu", "1e308", "--output", out])
        assert code == 2
        assert "the prior-weight total of hop 1 is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_truth_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--graph", workspace / "graph.txt",
                 "--labels", workspace / "labels.txt",
                 "--output", workspace / "r.json"])
        assert exc.value.code == 2

    def test_partial_truth_rejected(self, workspace):
        run_args = ["analyze", "--graph", workspace / "graph.txt",
                    "--labels", workspace / "labels.txt",
                    "--truth", workspace / "labels.txt",
                    "--output", workspace / "r.json"]
        assert run(run_args) == 2

    def test_label_contradicting_truth_rejected(self, workspace, capsys):
        labels = fileio.load_labels(workspace / "labels.txt")
        values = labels.values.copy()
        values[5] = 1 - values[5]
        fileio.save_labels(pp.LabelSet(labels.indices, values), workspace / "flipped.txt")
        code = run(["analyze", "--graph", workspace / "graph.txt",
                    "--labels", workspace / "flipped.txt", "--truth", workspace / "truth.txt",
                    "--output", workspace / "r.json"])
        assert code == 2
        assert f"node {labels.indices[5]} " in capsys.readouterr().err
        assert not (workspace / "r.json").exists()


class TestDemo:
    GOLDEN_ARGS = ["demo", "--seed", "0", "--points-per-cluster", "40",
                   "--labeled", "16", "--t", "6"]

    def test_reproduces_golden_file(self, tmp_path):
        out = tmp_path / "demo.json"
        assert run(self.GOLDEN_ARGS + ["--output", out]) == 0
        assert out.read_bytes() == (DATA / "demo_golden.json").read_bytes()

    def test_benchmark_instance_reproduces_its_digest_and_accuracies(self, tmp_path):
        # the benchmark's demo-2.5k job at seed 0: 2 x 1250 points, all eight methods
        out = tmp_path / "demo.json"
        assert run(["demo", "--clusters", "2", "--points-per-cluster", "1250", "--labeled",
                    "250", "--t", "10", "--seed", "0", "--output", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "1db9eca19c0f954c717b9c5f93b39f97ae9b80b3ba30f120e3fd98c530d57b94")
        recorded = json.loads((BENCHMARK / "demo_accuracies.json").read_text())["accuracies"]["0"]
        got = {r["method"]: r["metrics"]["accuracy"] for r in json.loads(out.read_text())["results"]}
        assert got.keys() == recorded.keys()
        for method, accuracy in recorded.items():
            assert abs(got[method] - accuracy) <= 1e-9, method

    def test_perfect_labelers_full_accuracy(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert run(["demo", "--seed", "1", "--points-per-cluster", "30",
                    "--labeled", "10", "--t", "6",
                    "--accuracies", "0.999999,0.999999", "--coverages", "1.0,1.0",
                    "--methods", "wl,lpa+wl,lpad:accuracy,lpad:oracle",
                    "--no-bounds", "--output", out]) == 0
        report = json.loads(out.read_text())
        for row in report["results"]:
            assert row["metrics"]["accuracy"] == 1.0

    def test_zero_coverage_rows_equal_lpa(self, tmp_path):
        out = tmp_path / "demo.json"
        assert run(["demo", "--seed", "2", "--points-per-cluster", "30",
                    "--labeled", "10", "--t", "6",
                    "--coverages", "0,0,0",
                    "--methods", "lpa,lpa+wl,lpad:accuracy,lpad:constant",
                    "--no-bounds", "--output", out]) == 0
        report = json.loads(out.read_text())
        rows = {r["method"]: r["metrics"] for r in report["results"]}
        for method in ("lpa+wl", "lpad:accuracy", "lpad:constant"):
            assert rows[method]["accuracy"] == rows["lpa"]["accuracy"]
            assert rows[method]["coverage"] == rows["lpa"]["coverage"]

    def test_prints_table(self, tmp_path, capsys):
        run(["demo", "--seed", "3", "--points-per-cluster", "20", "--labeled", "8",
             "--t", "5", "--methods", "lpa,wl", "--no-bounds",
             "--output", tmp_path / "d.json"])
        out = capsys.readouterr().out
        assert "method" in out and "lpa" in out

    @pytest.mark.parametrize("flag, message", [("--epsilon", "epsilon"), ("--t", "degree target")])
    def test_nan_parameter_exits_2(self, tmp_path, capsys, flag, message):
        assert run(["demo", flag, "nan", "--output", tmp_path / "d.json"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    def test_separation_whose_squared_distances_overflow_exits_2(self, tmp_path, capsys):
        args = ["demo", "--points-per-cluster", "20", "--labeled", "8", "--no-bounds"]
        assert run(args + ["--separation", "1e308", "--output", tmp_path / "d.json"]) == 2
        assert ("error: features span up to 1e+308 along an axis; the squared distances"
                in capsys.readouterr().err)
        assert not (tmp_path / "d.json").exists()
        assert run(args + ["--separation", "1e153", "--output", tmp_path / "d.json"]) == 0

    def test_malformed_list_is_a_usage_error_naming_its_type(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["demo", "--accuracies", "0.8,high", "--output", tmp_path / "d.json"])
        assert exc.value.code == 2
        assert "invalid float_list value: '0.8,high'" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        assert run(["demo", "--seed", "-1", "--output", tmp_path / "d.json"]) == 2
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()
