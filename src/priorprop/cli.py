"""Command-line interface.

Subcommands::

    priorprop build-graph  --features F --t T --output G
    priorprop propagate    --graph G|--features F --t T  --labels L [...] --output P
    priorprop analyze      --graph G|--features F --t T  --labels L --truth Y --output R
    priorprop demo         [synthetic-spec flags] --output R

An optional flag of ``propagate``, ``analyze`` or ``demo`` is absent from the
parsed arguments unless given, so the library's defaults are the only copy.
``_FLAG_READERS`` is the one table of which mode reads each flag that some
modes ignore: a flag the mode given does not read exits 2.

Exit codes: 0 success, 2 usage or input validation failure, 1 internal error.
Every command is a pure function of its inputs and flags; repeated runs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys

import numpy as np

from priorprop import evaluation, fileio, multisource
from priorprop.bounds import audit_inequalities, compute_bound, hop_stats
from priorprop.graph import (
    Graph,
    GraphFormatError,
    average_degree,
    build_threshold_graph,
    compute_neighborhoods,
)
from priorprop.solver import (
    PriorField,
    SolverConfig,
    solve_soft,
    solve_with_prior,
)
from priorprop.spectral import spectral_bound


def _add_graph_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="edge-list file")
    p.add_argument("--features", help="feature matrix file (requires --t)")
    p.add_argument("--t", type=float, help="average-degree target for graph construction")


# the constant prior's weight without --votes, per command
_DEFAULT_MU = {"propagate": 0.0, "analyze": 1.0}


def _add_prior_flags(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument(
        "--mu",
        type=float,
        help=f"constant prior pull toward 0.5 without --votes (default {_DEFAULT_MU[command]:g})",
    )
    p.add_argument("--votes", help="weak-vote matrix file (the prior fuses its votes)")
    p.add_argument("--accuracies", help="estimated labeler accuracies file")
    p.add_argument(
        "--alpha-scheme",
        choices=multisource.ALPHA_SCHEMES,
        help="trust-weight scheme for --votes (default accuracy)",
    )
    p.add_argument("--alpha-constant", type=float, help="cast-vote weight of the constant scheme")
    p.add_argument("--k-neighbors", type=int, help="k-NN size of the probabilistic scheme")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    default = SolverConfig()
    p.add_argument("--method", choices=("direct", "iterative"), help=f"(default {default.method})")
    p.add_argument("--tolerance", type=float,
                   help=f"iterative method only (default {default.tolerance:g})")
    p.add_argument("--max-iterations", type=int,
                   help=f"iterative method only (default {default.max_iterations})")


def _scheme(args) -> str:
    return getattr(args, "alpha_scheme", "accuracy")


# Per row: flags (by argparse name) that some modes ignore, whether the
# arguments select a mode that reads them, and the error when they do not.
_FLAG_READERS = (
    (("accuracies", "alpha_scheme", "alpha_constant", "k_neighbors"),
     lambda a: "votes" in a, "--votes is required by {}"),
    (("alpha_constant",), lambda a: _scheme(a) == "constant",
     "--alpha-scheme constant is required by {}"),
    (("k_neighbors",), lambda a: _scheme(a) == "probabilistic",
     "--alpha-scheme probabilistic is required by {}"),
    (("accuracies",), lambda a: _scheme(a) in ("accuracy", "boosting"),
     "--alpha-scheme accuracy or boosting is required by {}"),
    (("t",), lambda a: "features" in a, "--features is required by {}"),
    (("tolerance", "max_iterations"), lambda a: getattr(a, "method", None) == "iterative",
     "--method iterative is required by {}"),
    (("metrics_output", "epsilon"), lambda a: "truth" in a, "--truth is required by {}"),
    (("mu",), lambda a: "votes" not in a,
     "--mu cannot be combined with --votes (the votes set the prior weight)"),
    # analyze's --eta weighs only its spectral part's soft solve
    (("votes", "mu"), lambda a: a.command != "propagate" or "eta" not in a,
     "--eta (soft solve) cannot be combined with --votes or --mu"),
)


def _check_flags(args) -> None:
    """Reject a given flag that the mode given would silently ignore."""
    for names, is_read, message in _FLAG_READERS:
        given = [f"--{name.replace('_', '-')}" for name in names if name in args]
        if given and not is_read(args):
            raise ValueError(message.format(", ".join(given)))


def _given(args, *names: str) -> dict:
    """The flags among ``names`` that were given, as keyword arguments."""
    return {name: getattr(args, name) for name in names if name in args}


def _load_graph_input(args) -> tuple[Graph, np.ndarray | None]:
    """The graph, and the features it was built from (None for ``--graph``)."""
    if ("graph" in args) == ("features" in args):
        raise ValueError("exactly one of --graph or --features is required")
    if "graph" in args:
        return fileio.load_graph(args.graph), None
    if "t" not in args:
        raise ValueError("--features requires --t")
    features = fileio.load_features(args.features)
    return build_threshold_graph(features, args.t), features


def _load_labels(args, node_count: int):
    labels = fileio.load_labels(args.labels)
    labels.validate_against(node_count)
    if len(labels) == 0:
        raise ValueError("at least one labeled node is required")
    return labels


def _load_truth(args, node_count: int) -> np.ndarray | None:
    """The full ``--truth`` labels as one vector, or None without ``--truth``."""
    if "truth" not in args:
        return None
    truth_labels = fileio.load_labels(args.truth)
    truth_labels.validate_against(node_count)
    if len(truth_labels) != node_count:
        raise ValueError(
            f"ground truth must label every node ({len(truth_labels)} of {node_count} given)"
        )
    y = np.empty(node_count, dtype=np.int8)
    y[truth_labels.indices] = truth_labels.values
    return y


def _prior(args, node_count: int, labels, y, features) -> PriorField:
    """The ``--votes`` prior under ``--alpha-scheme``, else ``h = 0.5`` at ``--mu``."""
    if "votes" not in args:
        return PriorField.constant(node_count, getattr(args, "mu", _DEFAULT_MU[args.command]))
    votes = fileio.load_votes(args.votes)
    if votes.node_count != node_count:
        raise ValueError("vote matrix does not match graph size")
    options = _given(args, "k_neighbors")
    if "alpha_constant" in args:
        options["constant"] = args.alpha_constant
    return multisource.vote_prior(
        votes,
        _scheme(args),
        labels,
        accuracy=fileio.load_accuracies(args.accuracies) if "accuracies" in args else None,
        features=features,
        truth=y,
        **options,
    )


def cmd_build_graph(args) -> int:
    features = fileio.load_features(args.features)
    graph = build_threshold_graph(features, args.t)
    fileio.save_graph(graph, args.output)
    print(
        f"wrote {args.output}: {graph.node_count} nodes, {graph.edge_count} edges, "
        f"average degree {fileio.fmt_float(average_degree(graph))}"
    )
    return 0


def cmd_propagate(args) -> int:
    _check_flags(args)
    epsilon = evaluation.check_epsilon(getattr(args, "epsilon", evaluation.DEFAULT_EPSILON))
    config = SolverConfig(**_given(args, "method", "tolerance", "max_iterations"))
    graph, features = _load_graph_input(args)
    labels = _load_labels(args, graph.node_count)
    y = _load_truth(args, graph.node_count)

    if "eta" in args:
        prediction = solve_soft(graph, labels, args.eta, config)
    else:
        prior = _prior(args, graph.node_count, labels, y, features)
        prediction = solve_with_prior(graph, labels, prior, config)

    fileio.save_prediction(prediction, args.output)
    print(
        f"wrote {args.output}: method={prediction.method} converged={prediction.converged} "
        f"residual={fileio.fmt_float(prediction.residual)}"
    )
    if y is not None:
        metrics = evaluation.evaluate(prediction, y, epsilon)
        metrics_path = getattr(args, "metrics_output", args.output + ".metrics.json")
        fileio.write_json(metrics.to_dict(), metrics_path)
        print(f"wrote {metrics_path}")
    return 0


def cmd_analyze(args) -> int:
    _check_flags(args)
    config = SolverConfig(**_given(args, "method", "tolerance", "max_iterations"))
    graph, features = _load_graph_input(args)
    labels = _load_labels(args, graph.node_count)
    y = _load_truth(args, graph.node_count)
    wrong = np.flatnonzero(y[labels.indices] != labels.values)
    if wrong.size:
        # the bound and the audit take the labeled nodes' error against --truth
        # to be 0; they would describe a different problem than these labels pose
        i = int(labels.indices[wrong[0]])
        raise ValueError(f"label of node {i} contradicts --truth ({int(y[i])})")
    prior = _prior(args, graph.node_count, labels, y, features)
    partition = compute_neighborhoods(graph, labels)
    prediction = solve_with_prior(graph, labels, prior, config)
    stats = hop_stats(y, prior, partition, prediction)
    bound = compute_bound(stats)
    audit = audit_inequalities(stats)
    spectral = spectral_bound(graph, labels, y, args.eta, **_given(args, "delta_conf"))

    report = {
        "bound_report": bound.to_dict(),
        "audit": audit.to_dict(),
        "spectral_report": spectral.to_dict(),
    }
    fileio.write_json(report, args.output)
    print(
        f"wrote {args.output}: converged={prediction.converged} audit_passed={audit.passed} "
        f"spectral_finite={spectral.finite}"
    )
    return 0


def cmd_demo(args) -> int:
    fields = (field.name for field in dataclasses.fields(evaluation.SyntheticSpec))
    spec = evaluation.SyntheticSpec(**_given(args, *fields))
    report = evaluation.pipeline_report(
        spec, **_given(args, "methods"), with_bounds="no_bounds" not in args
    )
    fileio.write_json(report.to_dict(), args.output)
    print(report.to_text())
    print(f"wrote {args.output}")
    return 0


def float_list(text: str) -> tuple[float, ...]:
    """A comma-separated list of floats; argparse's error for a bad one names this type."""
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priorprop",
        description="Label propagation with priors, weak-labeler fusion and bound diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build a distance-threshold graph from features")
    p.add_argument("--features", required=True, help="feature matrix file")
    p.add_argument("--t", type=float, required=True, help="average-degree target")
    p.add_argument("--output", required=True, help="edge-list output path")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("propagate", help="solve a propagation problem and write scores",
                       argument_default=argparse.SUPPRESS)
    _add_graph_inputs(p)
    p.add_argument("--labels", required=True, help="labeled-node file")
    _add_prior_flags(p, "propagate")
    p.add_argument("--eta", type=float, help="soft-constraint weight (selects the soft solve)")
    p.add_argument("--truth", help="full ground-truth labels (enables metrics output)")
    p.add_argument("--epsilon", type=float,
                   help=f"metrics abstention width (default {evaluation.DEFAULT_EPSILON:g})")
    _add_solver_flags(p)
    p.add_argument("--output", required=True, help="prediction output path")
    p.add_argument("--metrics-output", help="metrics JSON path (default: <output>.metrics.json)")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("analyze", help="bound, audit and spectral reports (needs full truth)",
                       argument_default=argparse.SUPPRESS)
    _add_graph_inputs(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--truth", required=True, help="full ground-truth labels")
    _add_prior_flags(p, "analyze")
    p.add_argument("--eta", type=float, default=0.01, help="soft weight for the spectral part")
    delta = inspect.signature(spectral_bound).parameters["delta_conf"].default
    p.add_argument("--delta", dest="delta_conf", type=float,
                   help=f"confidence parameter of the spectral bound (default {delta:g})")
    _add_solver_flags(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("demo", help="synthetic end-to-end comparison table",
                       argument_default=argparse.SUPPRESS)
    # each dest is the SyntheticSpec field the flag sets
    p.add_argument("--seed", type=int)
    p.add_argument("--clusters", dest="cluster_count", type=int)
    p.add_argument("--points-per-cluster", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--dimension", type=int)
    p.add_argument("--noise", dest="noise_scale", type=float)
    p.add_argument("--accuracies", dest="labeler_accuracies", type=float_list)
    p.add_argument("--coverages", dest="labeler_coverages", type=float_list)
    p.add_argument("--labeled", dest="labeled_count", type=int)
    p.add_argument("--t", dest="graph_degree_target", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--methods", type=lambda text: tuple(m.strip() for m in text.split(",")))
    p.add_argument("--no-bounds", action="store_true", help="skip per-method bound reports")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
