"""Command-line interface.

Subcommands::

    priorprop build-graph  --features F --t T --output G
    priorprop propagate    --graph G|--features F --t T  --labels L [...] --output P
    priorprop analyze      --graph G|--features F --t T  --labels L --truth Y --output R
    priorprop demo         [synthetic-spec flags] --output R

Exit codes: 0 success, 2 usage or input validation failure, 1 internal error.
Every command is a pure function of its inputs and flags; repeated runs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
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


# flags that only shape the --votes prior; unset, they are None
_VOTE_FLAGS = ("accuracies", "alpha_scheme", "alpha_constant", "k_neighbors")


def _add_prior_flags(p: argparse.ArgumentParser, default_mu: float) -> None:
    p.add_argument(
        "--mu",
        type=float,
        help=f"constant prior pull toward 0.5 without --votes (default {default_mu:g})",
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
    p.set_defaults(default_mu=default_mu)


def _check_required_by(args, needed: str, present, names) -> None:
    """Without ``needed`` a flag that only it uses would be silently ignored."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given and not present:
        raise ValueError(f"{needed} is required by {', '.join(given)}")


def _check_prior_flags(args) -> None:
    """Reject a prior or input flag that the mode given would silently ignore."""
    _check_required_by(args, "--votes", args.votes, _VOTE_FLAGS)
    scheme = args.alpha_scheme or "accuracy"
    for name, readers in (("alpha_constant", ["constant"]), ("k_neighbors", ["probabilistic"]),
                          ("accuracies", ["accuracy", "boosting"])):
        needed = "--alpha-scheme " + " or ".join(readers)
        _check_required_by(args, needed, scheme in readers, (name,))
    _check_required_by(args, "--features", args.features, ("t",))


# flags that only the iterative method reads; unset, they are None
_ITERATIVE_FLAGS = ("tolerance", "max_iterations")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    default = SolverConfig()
    p.add_argument("--method", choices=("direct", "iterative"), default=default.method)
    p.add_argument("--tolerance", type=float,
                   help=f"iterative method only (default {default.tolerance:g})")
    p.add_argument("--max-iterations", type=int,
                   help=f"iterative method only (default {default.max_iterations})")
    p.add_argument("--unreachable-fill", type=float, default=default.unreachable_fill)


def _load_graph_input(args) -> tuple[Graph, np.ndarray | None]:
    """The graph, and the features it was built from (None for ``--graph``)."""
    if (args.graph is None) == (args.features is None):
        raise ValueError("exactly one of --graph or --features is required")
    if args.graph is not None:
        return fileio.load_graph(args.graph), None
    if args.t is None:
        raise ValueError("--features requires --t")
    features = fileio.load_features(args.features)
    return build_threshold_graph(features, args.t), features


def _solver_config(args) -> SolverConfig:
    _check_required_by(args, "--method iterative", args.method == "iterative", _ITERATIVE_FLAGS)
    # only the flags given, so that SolverConfig's defaults are the only copy
    given = {name: getattr(args, name) for name in _ITERATIVE_FLAGS}
    return SolverConfig(
        method=args.method,
        unreachable_fill=args.unreachable_fill,
        **{name: value for name, value in given.items() if value is not None},
    )


def _load_labels(args, node_count: int):
    labels = fileio.load_labels(args.labels)
    labels.validate_against(node_count)
    if len(labels) == 0:
        raise ValueError("at least one labeled node is required")
    return labels


def _load_truth(args, node_count: int) -> np.ndarray | None:
    """The full ``--truth`` labels as one vector, or None without ``--truth``."""
    if not args.truth:
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
    if not args.votes:
        mu = args.default_mu if args.mu is None else args.mu
        return PriorField.constant(node_count, mu=mu)
    if args.mu is not None:
        raise ValueError("--mu cannot be combined with --votes (the votes set the prior weight)")
    votes = fileio.load_votes(args.votes)
    if votes.node_count != node_count:
        raise ValueError("vote matrix does not match graph size")
    # only the flags given, so that vote_prior's defaults are the only copy
    options = {"constant": args.alpha_constant, "k_neighbors": args.k_neighbors}
    return multisource.vote_prior(
        votes,
        args.alpha_scheme or "accuracy",
        labels,
        accuracy=fileio.load_accuracies(args.accuracies) if args.accuracies else None,
        features=features,
        truth=y,
        **{key: value for key, value in options.items() if value is not None},
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
    _check_required_by(args, "--truth", args.truth, ("metrics_output", "epsilon"))
    epsilon = evaluation.check_epsilon(
        evaluation.DEFAULT_EPSILON if args.epsilon is None else args.epsilon
    )
    _check_prior_flags(args)
    config = _solver_config(args)
    graph, features = _load_graph_input(args)
    labels = _load_labels(args, graph.node_count)
    y = _load_truth(args, graph.node_count)

    if args.eta is not None:
        if args.votes or (args.mu is not None and args.mu > 0):
            raise ValueError("--eta (soft solve) cannot be combined with --votes or --mu")
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
        metrics_path = args.metrics_output or args.output + ".metrics.json"
        fileio.write_json(metrics.to_dict(), metrics_path)
        print(f"wrote {metrics_path}")
    return 0


def cmd_analyze(args) -> int:
    _check_prior_flags(args)
    config = _solver_config(args)
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
    stats = hop_stats(graph, y, prior, partition, prediction)
    bound = compute_bound(stats)
    audit = audit_inequalities(stats)
    # the default direct config, not the solver flags: Gauss-Seidel on the soft
    # problem at a small eta can run 10,000 sweeps without converging
    soft = solve_soft(graph, labels, args.eta)
    full = tuple(1 if v is None else v for v in (args.full_t, args.full_m, args.full_k))
    spectral = spectral_bound(graph, soft, labels, y, args.eta, args.delta, full)

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
    spec = evaluation.SyntheticSpec(
        cluster_count=args.clusters,
        points_per_cluster=args.points_per_cluster,
        separation=args.separation,
        dimension=args.dimension,
        noise_scale=args.noise,
        labeler_accuracies=tuple(float(v) for v in args.accuracies.split(",")),
        labeler_coverages=tuple(float(v) for v in args.coverages.split(",")),
        seed=args.seed,
        labeled_count=args.labeled,
        graph_degree_target=args.t,
        mu=args.mu,
        epsilon=args.epsilon,
    )
    methods = tuple(m.strip() for m in args.methods.split(","))
    report = evaluation.pipeline_report(spec, methods, with_bounds=not args.no_bounds)
    fileio.write_json(report.to_dict(), args.output)
    print(report.to_text())
    print(f"wrote {args.output}")
    return 0


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

    p = sub.add_parser("propagate", help="solve a propagation problem and write scores")
    _add_graph_inputs(p)
    p.add_argument("--labels", required=True, help="labeled-node file")
    _add_prior_flags(p, default_mu=0.0)
    p.add_argument("--eta", type=float, help="soft-constraint weight (selects the soft solve)")
    p.add_argument("--truth", help="full ground-truth labels (enables metrics output)")
    p.add_argument("--epsilon", type=float,
                   help=f"metrics abstention width (default {evaluation.DEFAULT_EPSILON:g})")
    _add_solver_flags(p)
    p.add_argument("--output", required=True, help="prediction output path")
    p.add_argument("--metrics-output", help="metrics JSON path (default: <output>.metrics.json)")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("analyze", help="bound, audit and spectral reports (needs full truth)")
    _add_graph_inputs(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--truth", required=True, help="full ground-truth labels")
    _add_prior_flags(p, default_mu=1.0)
    p.add_argument("--eta", type=float, default=0.01, help="soft weight for the spectral part")
    p.add_argument("--delta", type=float, default=0.1, help="confidence parameter")
    p.add_argument("--full-t", type=int, help="full spectral variant: multiplicity bound t")
    p.add_argument("--full-m", type=float, help="full spectral variant: label magnitude M")
    p.add_argument("--full-k", type=float, help="full spectral variant: score magnitude K")
    _add_solver_flags(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("demo", help="synthetic end-to-end comparison table")
    spec = evaluation.SyntheticSpec()
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--clusters", type=int, default=spec.cluster_count)
    p.add_argument("--points-per-cluster", type=int, default=spec.points_per_cluster)
    p.add_argument("--separation", type=float, default=spec.separation)
    p.add_argument("--dimension", type=int, default=spec.dimension)
    p.add_argument("--noise", type=float, default=spec.noise_scale)
    p.add_argument("--accuracies", default=",".join(map(str, spec.labeler_accuracies)))
    p.add_argument("--coverages", default=",".join(map(str, spec.labeler_coverages)))
    p.add_argument("--labeled", type=int, default=spec.labeled_count)
    p.add_argument("--t", type=float, default=spec.graph_degree_target)
    p.add_argument("--mu", type=float, default=spec.mu)
    p.add_argument("--epsilon", type=float, default=spec.epsilon)
    p.add_argument("--methods", default=",".join(evaluation.PIPELINE_METHODS))
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
