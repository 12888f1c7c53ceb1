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

Everything per hop lives in one table. ``hop_stats`` validates one analysis
(truth, prior, the hop layering, which holds its graph, and the prediction
being analyzed) and computes every quantity above once, as a
:class:`HopStats` column indexed by hop and named after the report's JSON
key (``c_k`` is ``local_term``). A node's own sums (its degree, label
disagreement and neighbours' error) add its entries one by one in CSR order,
as the solver's products ``W @ v`` do. Each hop's nodes are gathered once, as
one C-contiguous block holding every per-node quantity summed over hops, so
each per-hop sum adds in the order ``np.sum`` over the hop's nodes does;
``s_k`` adds up its nodes' disagreements one by one.
``compute_bound`` adds the columns ``d_k``, certified bound and bound source,
and its report derives the informal bound from ``d_k`` when read; the
report's JSON has one row per hop, read across the columns.
``audit_inequalities`` re-checks the chain of per-node and per-hop
inequalities the bound rests on as array expressions over the same columns,
one :class:`AuditFamily` of ``lhs``/``rhs``/``passed`` arrays per family.
Both read one ratio chain: a hop's bound is "measured" where the chain's
ratios are defined up to it, not where its inequalities hold (the audit's
``ratio_transfer`` families check that). Neither solves anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from priorprop.graph import Graph, NeighborhoodPartition, _as_truth
from priorprop.solver import Prediction, PriorField, scores

BETWEEN_FLOW_CONVENTION = "ordered-pairs (each within-hop edge counted twice)"


def _directional_weights(
    partition: NeighborhoodPartition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node edge weight going one hop in, within the hop, one hop out.

    The unreachable nodes count as one more hop, two past the last, so every
    edge of the layering joins hops at most one apart.
    """
    graph, hop_of = partition.graph, partition.hop_of
    rows = graph.rows
    hops = np.where(hop_of < 0, hop_of.max() + 2, hop_of)
    # 0, 1 and 2 for a neighbor one hop in, within the hop and one hop out
    bins = 3 * rows + hops[graph.indices] - hops[rows] + 1
    sums = np.bincount(bins, weights=graph.weights, minlength=3 * graph.node_count)
    return tuple(sums.reshape(-1, 3).T)


@dataclass(frozen=True, eq=False)
class HopStats:
    """One prediction's per-hop table, read by the bound and the audit.

    Every per-hop column is an array indexed by hop, hop 0 being the labeled
    set, and is named after the bound report's JSON key where it has one:
    the flows (``out_flow``, derived when read, is ``in_flow[k+1]``, the
    same edge-boundary sum, and 0 at the last hop), the prior terms
    ``mu_total``, ``pull_error`` (sum of ``mu |h - y|``) and ``mu_error``
    (sum of ``mu |f - y|``), ``smoothness``, ``prior_error`` and the bound
    terms ``local_term`` and ``gamma``, all 0 at hop 0, and the measured
    errors. ``avg_error`` is the mean of |f - y| over the hop; the in-,
    between- and out-errors weight each node's |f - y| by its edge weight in
    that direction, and are nan where that flow is zero. The ratios
    ``a_k = in/avg`` and ``b_k = out/avg`` are nan wherever the average
    error or the flow is zero. ``error`` and ``node_smoothness`` are per node,
    over the nodes of ``graph``, the partition's graph.
    """

    truth: np.ndarray
    prior: PriorField
    partition: NeighborhoodPartition
    prediction: Prediction | np.ndarray
    error: np.ndarray
    node_smoothness: np.ndarray
    size: np.ndarray
    in_flow: np.ndarray
    between_flow: np.ndarray
    mu_total: np.ndarray
    pull_error: np.ndarray
    mu_error: np.ndarray
    smoothness: np.ndarray
    prior_error: np.ndarray
    local_term: np.ndarray
    gamma: np.ndarray
    avg_error: np.ndarray
    in_error: np.ndarray
    between_error: np.ndarray
    out_error: np.ndarray
    in_error_ratio: np.ndarray
    out_error_ratio: np.ndarray

    @property
    def graph(self) -> Graph:
        return self.partition.graph

    @property
    def hop(self) -> np.ndarray:
        return np.arange(self.size.size)

    @property
    def out_flow(self) -> np.ndarray:
        return np.append(self.in_flow[1:], 0.0)

    @property
    def conductance(self) -> np.ndarray:
        """Share of each hop's edge weight that leaves it; nan with no edge."""
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = self.in_flow + self.between_flow + self.out_flow
            return np.where(denom > 0, (self.in_flow + self.out_flow) / denom, np.nan)

    @property
    def error_ratio(self) -> np.ndarray:
        """``delta_k = b_k / a_k``, nan where either ratio is undefined."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.out_error_ratio / self.in_error_ratio


def hop_stats(
    true_labels_full,
    prior: PriorField,
    partition: NeighborhoodPartition,
    prediction,
) -> HopStats:
    """Validate one analysis and compute its per-hop statistics once.

    The graph is ``partition.graph``, and the truth and the prior must cover
    its nodes. ``prediction`` is the :class:`Prediction` (or bare scores)
    being analyzed. Its scores must be finite, and it must equal the truth on
    every labeled node, since the bound and the audit take the labeled set's
    error to be exactly 0; the first node that breaks either rule is named in
    the ``ValueError``. So is the first hop past 0 whose prior-weight total
    overflows.
    """
    graph = partition.graph
    y = _as_truth(true_labels_full, graph.node_count)
    f = scores(prediction)
    if f.shape != y.shape:
        raise ValueError("prediction does not cover every node")
    if prior.node_count != graph.node_count:
        raise ValueError("prior size does not match graph")
    inw, betw, outw = _directional_weights(partition)
    labeled = partition.hops[0]
    wrong = np.flatnonzero(f[labeled] != y[labeled])
    if wrong.size:
        i = int(labeled[wrong[0]])
        raise ValueError(f"labeled node {i} has prediction {float(f[i])!r}, truth {int(y[i])}")

    err = np.abs(f - y)
    pull = np.abs(prior.h - y)
    # per node, the weighted true-label disagreement on its edges: the weight
    # to the other label's neighbours
    node_s = np.where(y == 1, graph.matrix @ (1.0 - y), graph.matrix @ y)
    l = partition.max_hop
    sizes = np.array([h.size for h in partition.hops])

    # one row per quantity summed over each hop; take gathers a hop's columns
    # as a C-contiguous block, whose rows sum as np.sum sums each one alone
    # (a strided table[:, h] would add in another order)
    mu = prior.mu
    table = np.empty((11, graph.node_count))
    table[:4] = inw, betw, outw, err
    table[7], table[8] = mu, pull
    sums = np.empty((11, l + 1))
    # an overflowing prior-weight total is reported below; a flow total that
    # overflows stays inf, and its flow-weighted error sum nan
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(table[:3], err, out=table[4:7])
        np.multiply(mu, pull, out=table[9])
        np.multiply(mu, err, out=table[10])
        for k, h in enumerate(partition.hops):
            sums[:, k] = table.take(h, axis=1).sum(axis=1)
    (in_flow, between, out_weight, err_sum, *flow_err,
     mu_total, pull_sum, pull_error, mu_error) = sums

    avg = err_sum / sizes
    with np.errstate(invalid="ignore", divide="ignore"):
        e_in, e_bet, e_out = (
            np.where(flow > 0, fe / flow, np.nan)
            for fe, flow in zip(flow_err, (in_flow, between, out_weight))
        )
        a = np.where(avg > 0, e_in / avg, np.nan)
        b = np.where(avg > 0, e_out / avg, np.nan)
    a_err = pull_sum / sizes
    # bincount adds in node order, as a running ``total += v`` over each hop does
    reached = partition.hop_of >= 0
    s = np.bincount(partition.hop_of[reached], weights=node_s[reached], minlength=l + 1)
    for per_hop in (mu_total, pull_error, mu_error, a_err, s):
        per_hop[0] = 0.0
    overflowed = np.flatnonzero(~np.isfinite(mu_total))
    if overflowed.size:
        raise ValueError(f"the prior-weight total of hop {int(overflowed[0])} is not finite")

    denom = in_flow[1:] + mu_total[1:]
    if np.any(denom <= 0):
        k = 1 + int(np.argmax(denom <= 0))
        raise ValueError(f"hop {k} has zero in-flow and zero prior weight")
    c, gam = np.zeros((2, l + 1))
    c[1:] = (s[1:] + pull_error[1:]) / denom
    gam[1:l] = in_flow[2:] / denom[:-1]  # no flow leaves the last hop
    return HopStats(
        truth=y,
        prior=prior,
        partition=partition,
        prediction=prediction if isinstance(prediction, Prediction) else f,
        error=err,
        node_smoothness=node_s,
        size=sizes,
        in_flow=in_flow,
        between_flow=between,
        mu_total=mu_total,
        pull_error=pull_error,
        mu_error=mu_error,
        smoothness=s,
        prior_error=a_err,
        local_term=c,
        gamma=gam,
        avg_error=avg,
        in_error=e_in,
        between_error=e_bet,
        out_error=e_out,
        in_error_ratio=a,
        out_error_ratio=b,
    )


HOP_KEYS = (
    "hop", "size", "in_flow", "between_flow", "out_flow", "conductance", "mu_total",
    "smoothness", "prior_error", "gamma", "local_term", "accumulated_term", "informal_bound",
    "avg_error", "in_error", "between_error", "out_error", "in_error_ratio", "out_error_ratio",
    "error_ratio", "certified_bound", "bound_source",
)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """The bound's columns beside the per-hop table they were built from.

    ``accumulated_term`` (``d_k``), ``certified_bound`` and ``bound_source``
    are indexed by hop like ``stats``, and so is ``informal_bound``, derived
    from ``d_k`` when read; hop 0, whose error is exactly 0, holds a measured
    bound of 0. The report's globals are read off ``stats``.
    """

    stats: HopStats
    accumulated_term: np.ndarray
    certified_bound: np.ndarray
    bound_source: tuple[str, ...]

    @property
    def informal_bound(self) -> np.ndarray:
        return np.cumsum(self.accumulated_term)

    def to_dict(self) -> dict[str, Any]:
        """The globals, and one dict per hop from 1 on, keyed by ``HOP_KEYS``
        in that order, with undefined (nan) values as None."""
        s = self.stats

        def column(key: str) -> list:
            values = np.asarray(getattr(self if hasattr(self, key) else s, key))[1:].tolist()
            return [None if v != v else v for v in values]

        mu = s.prior.mu
        ratios = np.concatenate([s.in_error_ratio[1:], s.out_error_ratio[1:]])
        ratios = ratios[np.isfinite(ratios)]
        rows = zip(*map(column, HOP_KEYS))
        return {
            "labeled_count": int(s.partition.hops[0].size),
            "unreachable_count": int(s.partition.unreachable.size),
            "mu_constant": float(mu[0]) if mu.size and np.all(mu == mu[0]) else None,
            "solver_method": s.prediction.method,
            "solver_residual": s.prediction.residual,
            "error_ratio_min": float(ratios.min()) if ratios.size else None,
            "error_ratio_max": float(ratios.max()) if ratios.size else None,
            "between_flow_convention": BETWEEN_FLOW_CONVENTION,
            "hops": [dict(zip(HOP_KEYS, row)) for row in rows],
        }


def _ratio_chain(stats: HopStats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hops 1..l's ratio-form transfer inequalities ``lhs <= rhs``, and where
    the ratios each one reads (``a_k``, ``b_{k-1}``) are ``defined``."""
    l = stats.partition.max_hop
    a, e = stats.in_error_ratio, stats.avg_error
    term = stats.out_error_ratio * e  # b_k E_k, nan where a ratio is undefined
    term[0] = 0.0  # b_0 E_0: the labeled set's error is exactly 0
    lhs = a[1:] * e[1:] - term[:-1]
    onward = np.zeros(l)
    onward[:-1] = stats.gamma[1:l] * (a[2:] * e[2:] - term[1:l])
    rhs = onward + stats.local_term[1:]
    defined = ~np.isnan(term[:-1]) & ~np.isnan(a[1:])
    return lhs, rhs, defined


def compute_bound(stats: HopStats) -> BoundReport:
    """Assemble the per-hop error bound and the measured errors of a prediction.

    The bound terms (``local_term``, ``gamma``, ``d``, informal bound) use only
    flows, smoothness and prior error. The certified bound additionally uses
    the measured error ratios of ``stats.prediction``, which must be a solver
    :class:`Prediction`. Its ``bound_source`` is ``"measured"`` at hops 1..k
    while the ratio chain is defined there, and ``"informal_fallback"`` (the
    informal bound) from the first hop where it is not.
    """
    if not isinstance(stats.prediction, Prediction):
        raise TypeError("compute_bound needs a solver Prediction, not bare scores")
    l = stats.partition.max_hop
    c, gam = stats.local_term, stats.gamma

    d = np.zeros(l + 1)
    for k in range(l, 0, -1):
        d[k] = c[k] + (gam[k] * d[k + 1] if k < l else 0.0)

    a, delta = stats.in_error_ratio, stats.error_ratio
    measured = int(np.logical_and.accumulate(_ratio_chain(stats)[2]).sum())
    certified = np.cumsum(d)  # the informal bound where the chain breaks
    for k in range(1, measured + 1):
        # d_k + d_{k-1} delta_{k-1} + ..., multiplied and summed left to right
        prods = np.cumprod(np.concatenate(([1.0], delta[k - 1:0:-1])))
        certified[k] = np.cumsum(d[k:0:-1] * prods)[-1] / a[k]
    source = ("measured",) * (measured + 1) + ("informal_fallback",) * (l - measured)
    return BoundReport(stats=stats, accumulated_term=d, certified_bound=certified,
                       bound_source=source)


AUDIT_SLACK = 1e-6


@dataclass(frozen=True, eq=False)
class AuditFamily:
    """One family of checks as columns: check i compares ``lhs[i] <= rhs[i]``
    at the ``unit`` (node or hop) ``ids[i]``, and passed if it held to within
    ``AUDIT_SLACK``."""

    unit: str
    ids: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return self.lhs <= self.rhs + AUDIT_SLACK

    @property
    def margin(self) -> np.ndarray:
        return self.rhs - self.lhs


def _family(unit: str, ids: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, keep=slice(None)):
    return AuditFamily(unit, ids[keep], lhs[keep], rhs[keep])


@dataclass(frozen=True, eq=False)
class AuditReport:
    """The audit's families in check order, each present only if it has checks."""

    families: dict[str, AuditFamily]

    @property
    def checks(self) -> np.ndarray:
        """Whether each check passed, family by family."""
        return np.concatenate([np.zeros(0, dtype=bool), *(f.passed for f in self.families.values())])

    @property
    def passed(self) -> bool:
        return bool(self.checks.all())

    def to_dict(self) -> dict[str, Any]:
        """Per family its count, failures and first smallest margin; then every
        failed check, family by family."""
        families: dict[str, Any] = {}
        failures = []
        for name, fam in self.families.items():
            margin = fam.margin
            worst = int(np.argmin(margin))
            failed = np.flatnonzero(~fam.passed)
            families[name] = {
                "count": int(fam.ids.size),
                "failed": int(failed.size),
                "worst_margin": float(margin[worst]),
                "worst_at": f"{fam.unit} {fam.ids[worst]}",
            }
            failures += [
                {"family": name, "at": f"{fam.unit} {i}", "lhs": lhs, "rhs": rhs}
                for i, lhs, rhs in zip(*(v[failed].tolist() for v in (fam.ids, fam.lhs, fam.rhs)))
            ]
        return {"passed": self.passed, "slack": AUDIT_SLACK, "families": families, "failures": failures}


def audit_inequalities(stats: HopStats) -> AuditReport:
    """Numerically verify the inequality chain behind the certified bound.

    Checks ``stats.prediction``, each check allowed ``AUDIT_SLACK`` of violation:

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
    l = stats.partition.max_hop

    nodes = np.concatenate([np.zeros(0, dtype=np.int64), *stats.partition.hops[1:]])
    nbr_err = (graph.matrix @ err)[nodes]
    mu = prior.mu[nodes]
    prior_term = mu * np.abs(prior.h[nodes] - y[nodes])
    node_rhs = (nbr_err + stats.node_smoothness[nodes] + prior_term) / (graph.degrees[nodes] + mu)

    # the per-hop forms for hops 1..l; the onward term to hop k+1 is 0 at the
    # last hop. hop_stats holds the labeled set's error at exactly 0, so
    # E_out(0) is 0 too
    hops = np.arange(1, l + 1)
    inner = hops < l
    e_in, e_out = stats.in_error, stats.out_error
    hop_lhs = stats.in_flow[1:] * (e_in[1:] - e_out[:-1]) + stats.mu_error[1:]
    onward = np.zeros(l)
    onward[:-1] = stats.out_flow[1:l] * (e_in[2:] - e_out[1:l])
    hop_rhs = onward + stats.smoothness[1:] + stats.pull_error[1:]

    ratio_lhs, ratio_rhs, defined = _ratio_chain(stats)
    chained = defined & np.append(defined[1:], False)  # at hop k and hop k+1

    families = {
        "node_error": _family("node", nodes, err[nodes], node_rhs),
        "hop_transfer": _family("hop", hops, hop_lhs, hop_rhs, inner),
        "hop_transfer_last": _family("hop", hops, hop_lhs, hop_rhs, ~inner),
        "ratio_transfer": _family("hop", hops, ratio_lhs, ratio_rhs, chained),
        "ratio_transfer_last": _family("hop", hops, ratio_lhs, ratio_rhs, ~inner & defined),
    }
    return AuditReport({name: fam for name, fam in families.items() if fam.ids.size})
