"""Per-hop flow, smoothness and error diagnostics, and the certified bound.

For the hop layering ``N_0 (labeled), N_1, ..., N_l`` around the labeled set,
this module measures, per hop k:

* flows: in-flow (edge weight to hop k-1), between-flow (within hop k, ordered
  pairs, so each within-hop edge counts twice) and out-flow (to hop k+1);
* Dirichlet conductance ``(in + out) / (in + between + out)``;
* smoothness ``s_k``: total weighted true-label disagreement on edges at hop k;
* prior error ``alpha_k``: mean |h - y| over the hop;
* solution errors: average, in-/between-/out-flow weighted, and the ratios
  ``a_k`` (in/avg), ``b_k`` (out/avg) with ``delta_k = b_k / a_k``.

From flows, smoothness and prior error alone it assembles

    c_k = (s_k + sum_{i in hop} mu_i |h_i - y_i|) / (in_k + sum mu_i)
    gamma_k = out_k / (in_k + sum mu_i)
    d_k = c_k + gamma_k d_{k+1}          (d_l = c_l)

giving the informal per-hop bound ``sum_{i<=k} d_i`` and, with the measured
ratios, the certified bound ``(1/a_k) sum_{i<=k} d_i prod_{j=i}^{k-1} delta_j``
on the hop's average error.

``hop_stats`` validates one analysis (graph, truth, prior, partition and the
prediction being analyzed) and computes every per-hop quantity above once,
with array code. ``compute_bound`` assembles the bound from those statistics
and ``audit_inequalities`` numerically re-checks the chain of per-node and
per-hop inequalities the bound rests on; neither solves anything.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import repeat
from typing import Any

import numpy as np

from priorprop.graph import Graph, NeighborhoodPartition, _as_truth, _row_sums
from priorprop.solver import Prediction, PriorField

BETWEEN_FLOW_CONVENTION = "ordered-pairs (each within-hop edge counted twice)"


def _directional_weights(
    graph: Graph, partition: NeighborhoodPartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node edge weight going one hop in, within the hop, one hop out."""
    hop_of = partition.hop_of
    rows = np.repeat(np.arange(graph.node_count), np.diff(graph.indptr))
    row_hops = hop_of[rows]
    nbr_hops = hop_of[graph.indices]
    reachable = (row_hops >= 0) & (nbr_hops >= 0)
    inw = np.zeros(graph.node_count)
    betw = np.zeros(graph.node_count)
    outw = np.zeros(graph.node_count)
    for target, arr in ((-1, inw), (0, betw), (1, outw)):
        mask = reachable & (nbr_hops == row_hops + target)
        np.add.at(arr, rows[mask], graph.weights[mask])
    return inw, betw, outw


@dataclass(frozen=True, eq=False)
class FlowProfile:
    """Per-hop flows, indexed by hop (index 0 = labeled set).

    ``out_flow[k]`` is stored as ``in_flow[k+1]``; the two are the same
    edge-boundary sum, so the identity between them holds exactly.
    ``out_flow[l]`` is 0: the last hop has nowhere to flow to.
    """

    in_flow: np.ndarray
    between_flow: np.ndarray
    out_flow: np.ndarray
    sizes: np.ndarray


def conductance(flows: FlowProfile, k: int) -> float | None:
    """Fraction of hop k's incident edge weight that crosses its boundary.

    None (missing) for a hop with no incident edges at all.
    """
    denom = flows.in_flow[k] + flows.between_flow[k] + flows.out_flow[k]
    if denom <= 0:
        return None
    return float((flows.in_flow[k] + flows.out_flow[k]) / denom)


def _disagreement(graph: Graph, y: np.ndarray) -> np.ndarray:
    """Per node, the weighted true-label disagreement on its edges."""
    rows = np.repeat(np.arange(graph.node_count), np.diff(graph.indptr))
    return _row_sums(graph.indptr, graph.weights * np.abs(y[graph.indices] - y[rows]))


def _in_order_sum(values: np.ndarray) -> float:
    """Sum from left to right, as a running ``total += v`` adds."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def smoothness(
    graph: Graph, true_labels_full, partition: NeighborhoodPartition, k: int
) -> float:
    """Total weighted true-label disagreement on edges incident to hop k."""
    y = _as_truth(true_labels_full, graph.node_count)
    return _in_order_sum(_disagreement(graph, y)[partition.hops[k]])


@dataclass(frozen=True, eq=False)
class HopErrors:
    """Measured solution errors per hop; nan marks undefined entries.

    ``avg`` is the mean of |f - y| over the hop. The in-/between-/out-errors
    are flow-weighted averages of |f - y| over the hop's nodes, weighting each
    node by its edge weight in the corresponding direction. Ratios
    ``a_k = in/avg`` and ``b_k = out/avg`` are nan wherever the hop's average
    error is zero or the corresponding flow is zero.
    """

    avg: np.ndarray
    in_err: np.ndarray
    between_err: np.ndarray
    out_err: np.ndarray
    in_ratio: np.ndarray
    out_ratio: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.out_ratio / self.in_ratio


def _none_if_nan(x: float | None) -> float | None:
    if x is None:
        return None
    x = float(x)
    return None if np.isnan(x) else x


@dataclass(frozen=True, eq=False)
class HopRecord:
    hop: int
    size: int
    in_flow: float
    between_flow: float
    out_flow: float
    conductance: float | None
    mu_total: float
    smoothness: float
    prior_error: float
    gamma: float
    local_term: float
    accumulated_term: float
    informal_bound: float
    avg_error: float
    in_error: float | None
    between_error: float | None
    out_error: float | None
    in_error_ratio: float | None
    out_error_ratio: float | None
    error_ratio: float | None
    certified_bound: float
    bound_source: str

    def to_dict(self) -> dict[str, Any]:
        """Every field in declaration order, with undefined optional values as None."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in _OPTIONAL_FIELDS:
            out[name] = _none_if_nan(out[name])
        return out


_OPTIONAL_FIELDS = (
    "conductance", "in_error", "between_error", "out_error",
    "in_error_ratio", "out_error_ratio", "error_ratio",
)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Bound ingredients and measured errors for every hop, plus globals."""

    hops: tuple[HopRecord, ...]
    labeled_count: int
    unreachable_count: int
    mu_constant: float | None
    solver_method: str
    solver_residual: float
    ratio_min: float | None
    ratio_max: float | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "labeled_count": self.labeled_count,
            "unreachable_count": self.unreachable_count,
            "mu_constant": self.mu_constant,
            "solver_method": self.solver_method,
            "solver_residual": self.solver_residual,
            "error_ratio_min": _none_if_nan(self.ratio_min),
            "error_ratio_max": _none_if_nan(self.ratio_max),
            "between_flow_convention": BETWEEN_FLOW_CONVENTION,
            "hops": [h.to_dict() for h in self.hops],
        }


@dataclass(frozen=True, eq=False)
class HopStats:
    """One prediction's per-hop statistics, read by the bound and the audit.

    Per-hop arrays are indexed by hop and hold 0 at hop 0 (the labeled set):
    ``mu_total``, ``pull_error`` (sum of ``mu |h - y|``), ``mu_error`` (sum of
    ``mu |f - y|``), ``smoothness``, ``prior_error``, the local term ``c`` and
    ``gamma``. ``flows`` and ``errors`` hold the flows and the measured
    solution errors of every hop. ``error`` and ``node_smoothness`` are per
    node.
    """

    graph: Graph
    truth: np.ndarray
    prior: PriorField
    partition: NeighborhoodPartition
    prediction: Prediction | np.ndarray
    error: np.ndarray
    node_smoothness: np.ndarray
    flows: FlowProfile
    errors: HopErrors
    mu_total: np.ndarray
    pull_error: np.ndarray
    mu_error: np.ndarray
    smoothness: np.ndarray
    prior_error: np.ndarray
    c: np.ndarray
    gamma: np.ndarray


def hop_stats(
    graph: Graph,
    true_labels_full,
    prior: PriorField,
    partition: NeighborhoodPartition,
    prediction,
) -> HopStats:
    """Validate one analysis and compute its per-hop statistics once.

    ``prediction`` is the :class:`Prediction` (or bare scores) being analyzed.
    Its scores must be finite, and it must equal the truth on every labeled
    node, since the bound and the audit take the labeled set's error to be
    exactly 0; the first node that breaks either rule is named in the
    ``ValueError``.
    """
    y = _as_truth(true_labels_full, graph.node_count)
    f = prediction.f if isinstance(prediction, Prediction) else np.asarray(prediction, float)
    if f.shape != y.shape:
        raise ValueError("prediction does not cover every node")
    if prior.node_count != graph.node_count:
        raise ValueError("prior size does not match graph")
    partition.validate_against(graph)
    non_finite = np.flatnonzero(~np.isfinite(f))
    if non_finite.size:
        i = int(non_finite[0])
        raise ValueError(f"node {i} has non-finite prediction {float(f[i])!r}")
    labeled = partition.hops[0]
    wrong = np.flatnonzero(f[labeled] != y[labeled])
    if wrong.size:
        i = int(labeled[wrong[0]])
        raise ValueError(f"labeled node {i} has prediction {float(f[i])!r}, truth {int(y[i])}")

    err = np.abs(f - y)
    pull = np.abs(prior.h - y)
    node_s = _disagreement(graph, y)
    inw, betw, outw = _directional_weights(graph, partition)
    l = partition.max_hop
    sizes = np.array([h.size for h in partition.hops], dtype=np.int64)
    hop_ptr = np.concatenate(([0], np.cumsum(sizes)))
    hop_order = np.concatenate(partition.hops)

    def hop_sums(values: np.ndarray) -> np.ndarray:
        """``np.sum(values[hops[k]])`` for every hop k, bit for bit."""
        return _row_sums(hop_ptr, values[hop_order])

    in_flow, between, out_weight = (hop_sums(w) for w in (inw, betw, outw))
    out_flow = np.zeros(l + 1)
    out_flow[:l] = in_flow[1:]
    flows = FlowProfile(in_flow=in_flow, between_flow=between, out_flow=out_flow, sizes=sizes)

    avg = hop_sums(err) / sizes
    with np.errstate(invalid="ignore", divide="ignore"):
        e_in, e_bet, e_out = (
            np.where(flow > 0, hop_sums(w * err) / flow, np.nan)
            for w, flow in ((inw, in_flow), (betw, between), (outw, out_weight))
        )
        a = np.where(avg > 0, e_in / avg, np.nan)
        b = np.where(avg > 0, e_out / avg, np.nan)
    errors = HopErrors(avg=avg, in_err=e_in, between_err=e_bet, out_err=e_out, in_ratio=a, out_ratio=b)

    mu = prior.mu
    mu_total, pull_error, mu_error = (hop_sums(v) for v in (mu, mu * pull, mu * err))
    a_err = hop_sums(pull) / sizes
    for per_hop in (mu_total, pull_error, mu_error, a_err):
        per_hop[0] = 0.0
    s = np.array([0.0] + [_in_order_sum(node_s[nodes]) for nodes in partition.hops[1:]])

    denom = in_flow[1:] + mu_total[1:]
    if np.any(denom <= 0):
        k = 1 + int(np.argmax(denom <= 0))
        raise ValueError(f"hop {k} has zero in-flow and zero prior weight")
    c, gam = np.zeros((2, l + 1))
    c[1:] = (s[1:] + pull_error[1:]) / denom
    gam[1:] = out_flow[1:] / denom
    return HopStats(
        graph=graph,
        truth=y,
        prior=prior,
        partition=partition,
        prediction=prediction if isinstance(prediction, Prediction) else f,
        error=err,
        node_smoothness=node_s,
        flows=flows,
        errors=errors,
        mu_total=mu_total,
        pull_error=pull_error,
        mu_error=mu_error,
        smoothness=s,
        prior_error=a_err,
        c=c,
        gamma=gam,
    )


def compute_bound(stats: HopStats) -> BoundReport:
    """Assemble the per-hop error bound and the measured errors of a prediction.

    The bound terms (``c``, ``gamma``, ``d``, informal bound) use only flows,
    smoothness and prior error. The certified bound additionally uses the
    measured error ratios of ``stats.prediction``, which must be a solver
    :class:`Prediction`; at hops where a needed ratio is undefined (zero
    average error somewhere in the chain) it falls back to the informal bound
    and says so in ``bound_source``.
    """
    prediction = stats.prediction
    if not isinstance(prediction, Prediction):
        raise TypeError("compute_bound needs a solver Prediction, not bare scores")
    flows, errors, partition = stats.flows, stats.errors, stats.partition
    l = partition.max_hop
    c, gam = stats.c, stats.gamma

    d = np.zeros(l + 1)
    for k in range(l, 0, -1):
        d[k] = c[k] + (gam[k] * d[k + 1] if k < l else 0.0)
    informal = np.cumsum(d)

    delta = errors.delta
    records = []
    for k in range(1, l + 1):
        a_k = errors.in_ratio[k]
        chain_ok = np.isfinite(a_k) and np.all(np.isfinite(delta[1:k]))
        if chain_ok:
            total = 0.0
            prod = 1.0
            for i in range(k, 0, -1):
                total += d[i] * prod
                if i > 1:
                    prod *= delta[i - 1]
            certified = float(total / a_k)
            source = "measured"
        else:
            certified = float(informal[k])
            source = "informal_fallback"
        records.append(
            HopRecord(
                hop=k,
                size=int(flows.sizes[k]),
                in_flow=float(flows.in_flow[k]),
                between_flow=float(flows.between_flow[k]),
                out_flow=float(flows.out_flow[k]),
                conductance=conductance(flows, k),
                mu_total=float(stats.mu_total[k]),
                smoothness=float(stats.smoothness[k]),
                prior_error=float(stats.prior_error[k]),
                gamma=float(gam[k]),
                local_term=float(c[k]),
                accumulated_term=float(d[k]),
                informal_bound=float(informal[k]),
                avg_error=float(errors.avg[k]),
                in_error=float(errors.in_err[k]),
                between_error=float(errors.between_err[k]),
                out_error=float(errors.out_err[k]),
                in_error_ratio=float(errors.in_ratio[k]),
                out_error_ratio=float(errors.out_ratio[k]),
                error_ratio=float(delta[k]),
                certified_bound=certified,
                bound_source=source,
            )
        )

    mu_vals = stats.prior.mu
    mu_constant = float(mu_vals[0]) if mu_vals.size and np.all(mu_vals == mu_vals[0]) else None
    ratios = np.concatenate([errors.in_ratio[1:], errors.out_ratio[1:]])
    ratios = ratios[np.isfinite(ratios)]
    return BoundReport(
        hops=tuple(records),
        labeled_count=int(partition.hops[0].size),
        unreachable_count=int(partition.unreachable.size),
        mu_constant=mu_constant,
        solver_method=prediction.method,
        solver_residual=prediction.residual,
        ratio_min=float(ratios.min()) if ratios.size else None,
        ratio_max=float(ratios.max()) if ratios.size else None,
    )


@dataclass(frozen=True, eq=False)
class AuditCheck:
    family: str
    location: str
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True, eq=False)
class AuditReport:
    passed: bool
    slack: float
    checks: tuple[AuditCheck, ...]

    def failures(self) -> list[AuditCheck]:
        return [c for c in self.checks if not c.passed]

    def worst_by_family(self) -> dict[str, AuditCheck]:
        worst: dict[str, AuditCheck] = {}
        for c in self.checks:
            if c.family not in worst or c.margin < worst[c.family].margin:
                worst[c.family] = c
        return worst

    def to_dict(self) -> dict[str, Any]:
        families = {
            family: {"count": 0, "failed": 0, "worst_margin": c.margin, "worst_at": c.location}
            for family, c in self.worst_by_family().items()
        }
        for c in self.checks:
            families[c.family]["count"] += 1
            if not c.passed:
                families[c.family]["failed"] += 1
        return {
            "passed": self.passed,
            "slack": self.slack,
            "families": families,
            "failures": [
                {"family": c.family, "at": c.location, "lhs": c.lhs, "rhs": c.rhs}
                for c in self.failures()
            ],
        }


def audit_inequalities(stats: HopStats, slack: float = 1e-6) -> AuditReport:
    """Numerically verify the inequality chain behind the certified bound.

    Checks ``stats.prediction``, each check allowed ``slack`` of violation:

    * ``node_error``: per unlabeled reachable node, its error is at most the
      prior/label-weighted average of its neighbors' errors plus the local
      smoothness and prior-error terms;
    * ``hop_transfer`` / ``hop_transfer_last``: the per-hop error-difference
      inequalities obtained by summing the node inequality over a hop;
    * ``ratio_transfer`` / ``ratio_transfer_last``: the same inequalities
      rewritten with the measured in/out error ratios (skipped at hops where
      a needed ratio is undefined).

    These hold at any exact optimum; failures indicate the prediction is not
    the optimum (or was perturbed).
    """
    graph, prior, y, err = stats.graph, stats.prior, stats.truth, stats.error
    flows, errors = stats.flows, stats.errors
    l = stats.partition.max_hop

    nodes = np.concatenate([np.zeros(0, dtype=np.int64), *stats.partition.hops[1:]])
    nbr_err = _row_sums(graph.indptr, graph.weights * err[graph.indices])[nodes]
    mu = prior.mu[nodes]
    lhs = err[nodes]
    prior_term = mu * np.abs(prior.h[nodes] - y[nodes])
    rhs = (nbr_err + stats.node_smoothness[nodes] + prior_term) / (graph.degrees[nodes] + mu)
    locations = map("node {}".format, nodes.tolist())
    passed = (lhs <= rhs + slack).tolist()
    checks = list(
        map(AuditCheck, repeat("node_error"), locations, lhs.tolist(), rhs.tolist(), passed)
    )

    s, pull_error, mu_err = stats.smoothness, stats.pull_error, stats.mu_error
    # hop_stats holds the labeled set's error at exactly 0, so E_out(0) is 0 too
    e_in, e_out = errors.in_err, errors.out_err
    for k in range(1, l):
        lhs = flows.in_flow[k] * (e_in[k] - e_out[k - 1]) + mu_err[k]
        rhs = flows.out_flow[k] * (e_in[k + 1] - e_out[k]) + s[k] + pull_error[k]
        checks.append(
            AuditCheck("hop_transfer", f"hop {k}", float(lhs), float(rhs), lhs <= rhs + slack)
        )
    if l >= 1:
        lhs = flows.in_flow[l] * (e_in[l] - e_out[l - 1]) + mu_err[l]
        rhs = s[l] + pull_error[l]
        checks.append(
            AuditCheck("hop_transfer_last", f"hop {l}", float(lhs), float(rhs), lhs <= rhs + slack)
        )

    a, e = errors.in_ratio, errors.avg
    local, gam = stats.c, stats.gamma
    term = errors.out_ratio * e  # b_k E_k, nan where a ratio is undefined
    term[0] = 0.0  # b_0 E_0 is exactly 0
    for k in range(1, l):
        if np.isnan([term[k - 1], term[k], a[k], a[k + 1]]).any():
            continue
        lhs = a[k] * e[k] - term[k - 1]
        rhs = gam[k] * (a[k + 1] * e[k + 1] - term[k]) + local[k]
        checks.append(
            AuditCheck("ratio_transfer", f"hop {k}", float(lhs), float(rhs), lhs <= rhs + slack)
        )
    if l >= 1 and not np.isnan([term[l - 1], a[l]]).any():
        lhs = a[l] * e[l] - term[l - 1]
        rhs = local[l]
        checks.append(
            AuditCheck(
                "ratio_transfer_last", f"hop {l}", float(lhs), float(rhs), lhs <= rhs + slack
            )
        )

    return AuditReport(passed=all(c.passed for c in checks), slack=slack, checks=tuple(checks))
