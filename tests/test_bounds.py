import json

import numpy as np
import pytest

import priorprop.bounds as bounds_mod
from priorprop import fileio
from priorprop.bounds import (
    AUDIT_SLACK,
    audit_inequalities,
    compute_bound,
    hop_stats,
)
from priorprop.graph import Graph, LabelSet, compute_neighborhoods
from priorprop.solver import PriorField, SolverConfig, solve_with_prior

import test_cli
from test_acceptance import _bound_instance

from oracles import (
    loop_conductance,
    loop_directional_weights,
    loop_flows,
    loop_hop_errors,
    loop_hop_sums,
    loop_node_error,
    loop_prior_terms,
    loop_smoothness,
    mixed_row_length_edges,
    neighbors,
    random_connected_graph,
    random_labels,
)


def path_graph(n, w=1.0):
    return Graph.from_edges(n, [(i, i + 1, w) for i in range(n - 1)])


def solved_stats(g, labels, y, prior, part):
    return hop_stats(y, prior, part, solve_with_prior(g, labels, prior))


def truth_stats(g, part, y=None, f=None, prior=None):
    """``hop_stats`` of ``f`` under a unit prior; the truth ``y`` defaults to
    all zeros and ``f`` to the truth itself."""
    if y is None:
        y = np.zeros(g.node_count, dtype=np.int8)
    if prior is None:
        prior = PriorField.constant(g.node_count, mu=1.0)
    return hop_stats(y, prior, part, y.astype(float) if f is None else f)


def brute_force_flows(graph, part, k):
    """Ordered-pair double loop straight from the definitions."""
    cin = cbet = cout = 0.0
    hop = part.hop_of
    for i in part.hops[k]:
        nbrs, w = neighbors(graph, int(i))
        for j, wv in zip(nbrs, w):
            if hop[j] == k - 1:
                cin += wv
            elif hop[j] == k:
                cbet += wv
            elif hop[j] == k + 1:
                cout += wv
    return cin, cbet, cout


class TestFlows:
    def test_path_flows(self):
        g = path_graph(3)
        part = compute_neighborhoods(g, LabelSet([0], [0]))
        stats = truth_stats(g, part)
        assert stats.in_flow[1] == 1.0
        assert stats.between_flow[1] == 0.0
        assert stats.out_flow[1] == 1.0

    def test_within_hop_edges_count_twice(self):
        # labeled c adjacent to both a and b, who form an edge between them
        g = Graph.from_edges(3, [(2, 0, 1.0), (2, 1, 1.0), (0, 1, 1.0)])
        part = compute_neighborhoods(g, LabelSet([2], [1]))
        stats = truth_stats(g, part)
        assert stats.in_flow[1] == 2.0
        assert stats.between_flow[1] == 2.0
        assert stats.out_flow[1] == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_flow_identity_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=n // 2))
        idx, vals = random_labels(rng, n)
        part = compute_neighborhoods(g, LabelSet(idx, vals))
        stats = truth_stats(g, part)
        for k in range(part.max_hop):
            assert stats.out_flow[k] == stats.in_flow[k + 1]
        assert stats.out_flow[part.max_hop] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_flows_match_double_loop_oracle(self, seed):
        rng = np.random.default_rng(seed + 300)
        n = int(rng.integers(5, 20))
        g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=n))
        idx, vals = random_labels(rng, n)
        part = compute_neighborhoods(g, LabelSet(idx, vals))
        stats = truth_stats(g, part)
        for k in range(1, part.max_hop + 1):
            cin, cbet, cout = brute_force_flows(g, part, k)
            assert stats.in_flow[k] == pytest.approx(cin, rel=1e-12)
            assert stats.between_flow[k] == pytest.approx(cbet, rel=1e-12)
            assert stats.out_flow[k] == pytest.approx(cout, rel=1e-12)


class TestConductance:
    def test_no_internal_edges(self):
        g = path_graph(3)
        part = compute_neighborhoods(g, LabelSet([0], [0]))
        stats = truth_stats(g, part)
        assert stats.conductance[1] == 1.0

    def test_only_internal_edges(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        part = compute_neighborhoods(g, LabelSet([0], [0]))
        stats = truth_stats(g, part)
        # hop 2 = {2, 3}: in 2.0, between 2.0, out 0 -> phi = 0.5
        assert stats.conductance[2] == pytest.approx(0.5)

    def test_formula(self):
        g = path_graph(3)
        part = compute_neighborhoods(g, LabelSet([0], [0]))
        stats = truth_stats(g, part)
        # hop 1: in=1, bet=0, out=1 -> (1+1)/(1+0+1) = 1
        assert stats.conductance[1] == pytest.approx(1.0)
        assert 0.0 <= stats.conductance[1] <= 1.0

    def test_column_matches_the_per_hop_formula(self):
        for seed in (20240504, 20240507):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                g, labels, y, prior, part = _bound_instance(rng)
                stats = solved_stats(g, labels, y, prior, part)
                for k in range(part.max_hop + 1):
                    want = loop_conductance(stats, k)
                    got = stats.conductance[k]
                    assert np.isnan(got) if want is None else got == want

    def test_nan_at_a_hop_with_no_incident_edge(self):
        g = Graph.from_edges(3, [(1, 2, 1.0)])
        part = compute_neighborhoods(g, LabelSet([0], [0]))
        stats = truth_stats(g, part)
        assert loop_conductance(stats, 0) is None
        assert np.isnan(stats.conductance).tolist() == [True]


class TestGamma:
    def test_zero_out_flow(self):
        g = path_graph(2)
        labels = LabelSet([0], [0])
        part = compute_neighborhoods(g, labels)
        stats = solved_stats(g, labels, np.zeros(2), PriorField.constant(2, mu=0.0), part)
        assert stats.gamma[1] == 0.0

    def test_formula(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
        labels = LabelSet([0], [0])
        part = compute_neighborhoods(g, labels)
        stats = solved_stats(g, labels, np.zeros(4), PriorField.constant(4, mu=1.0), part)
        # hop 1 = {1}: in 1, out 2; mu total 1 -> gamma = 2/(1+1) = 1
        assert stats.gamma[1] == pytest.approx(1.0)

    def test_large_mu_drives_gamma_to_zero(self):
        g = path_graph(3)
        labels = LabelSet([0], [0])
        part = compute_neighborhoods(g, labels)
        stats = solved_stats(g, labels, np.zeros(3), PriorField.constant(3, mu=1e12), part)
        assert stats.gamma[1] < 1e-11


class TestSmoothnessAndPriorError:
    def test_uniform_labels_smooth(self):
        g = path_graph(4)
        part = compute_neighborhoods(g, LabelSet([0], [1]))
        y = np.ones(4, dtype=np.int8)
        assert truth_stats(g, part, y).smoothness[1:].tolist() == [0.0] * part.max_hop

    def test_single_boundary_edge(self):
        g = path_graph(3)
        part = compute_neighborhoods(g, LabelSet([0], [0]))
        y = np.array([0, 0, 1], dtype=np.int8)
        assert truth_stats(g, part, y).smoothness[1:].tolist() == [1.0, 1.0]

    def test_eight_boundary_edges(self):
        # hop 2 nodes each carry two unit-weight edges across the class line
        edges = []
        # labeled 0 -> hop1 {1,2} -> hop2 {3,4,5,6} with 8 boundary edges into hop3
        edges += [(0, 1, 1.0), (0, 2, 1.0)]
        edges += [(1, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0), (2, 6, 1.0)]
        hop3 = [7, 8, 9, 10, 11, 12, 13, 14]
        pos = 0
        for i in (3, 4, 5, 6):
            edges.append((i, hop3[pos], 1.0))
            pos += 1
            edges.append((i, hop3[pos], 1.0))
            pos += 1
        g = Graph.from_edges(15, edges)
        part = compute_neighborhoods(g, LabelSet([0], [0]))
        y = np.array([0] * 7 + [1] * 8, dtype=np.int8)
        assert truth_stats(g, part, y).smoothness[2] == 8.0

    def test_prior_error_cases(self):
        g = path_graph(4)
        part = compute_neighborhoods(g, LabelSet([0], [1]))
        y = np.array([1, 0, 1, 0], dtype=np.int8)
        exact = PriorField(y.astype(float), np.ones(4))
        assert truth_stats(g, part, y, prior=exact).prior_error[1] == 0.0
        neutral = PriorField.constant(4, mu=1.0)
        assert truth_stats(g, part, y, prior=neutral).prior_error[1] == 0.5
        flipped = PriorField(1.0 - y.astype(float), np.ones(4))
        assert truth_stats(g, part, y, prior=flipped).prior_error[2] == 1.0


class TestNeighborhoodErrors:
    def test_exact_prediction_all_zero(self):
        g = path_graph(4)
        part = compute_neighborhoods(g, LabelSet([0], [1]))
        y = np.ones(4, dtype=np.int8)
        stats = truth_stats(g, part, y)
        assert np.all(stats.avg_error == 0.0)
        assert np.all(np.isnan(stats.in_error_ratio[1:]))
        assert np.all(np.isnan(stats.out_error_ratio[1:]))

    def test_uniform_error_gives_unit_ratios(self):
        g = path_graph(4)
        part = compute_neighborhoods(g, LabelSet([0], [1]))
        y = np.ones(4, dtype=np.int8)
        f = y - 0.25
        f[0] = 1.0
        stats = truth_stats(g, part, y, f)
        for k in range(1, part.max_hop + 1):
            assert stats.avg_error[k] == pytest.approx(0.25)
            assert stats.in_error[k] == pytest.approx(0.25)
            assert stats.in_error_ratio[k] == pytest.approx(1.0)
            if k < part.max_hop:
                assert stats.out_error[k] == pytest.approx(0.25)
                assert stats.out_error_ratio[k] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(seed + 600)
        n = int(rng.integers(5, 16))
        g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=n))
        idx, vals = random_labels(rng, n)
        part = compute_neighborhoods(g, LabelSet(idx, vals))
        y = rng.integers(0, 2, n).astype(np.int8)
        f = rng.uniform(0, 1, n)
        f[idx] = y[idx]
        stats = truth_stats(g, part, y, f)
        hop = part.hop_of
        for k in range(1, part.max_hop + 1):
            num_in = num_bet = num_out = 0.0
            cin = cbet = cout = 0.0
            for i in part.hops[k]:
                nbrs, w = neighbors(g, int(i))
                e_i = abs(f[i] - y[i])
                for j, wv in zip(nbrs, w):
                    if hop[j] == k - 1:
                        num_in += wv * e_i
                        cin += wv
                    elif hop[j] == k:
                        num_bet += wv * e_i
                        cbet += wv
                    elif hop[j] == k + 1:
                        num_out += wv * e_i
                        cout += wv
            assert stats.avg_error[k] == pytest.approx(
                np.mean([abs(f[i] - y[i]) for i in part.hops[k]]), rel=1e-12
            )
            assert stats.in_error[k] == pytest.approx(num_in / cin, rel=1e-10)
            if cbet > 0:
                assert stats.between_error[k] == pytest.approx(num_bet / cbet, rel=1e-10)
            if cout > 0:
                assert stats.out_error[k] == pytest.approx(num_out / cout, rel=1e-10)


def random_bound_instance(seed, n_max=30, mu_choices=(0.1, 1.0, 10.0)):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, n_max + 1))
    g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=n // 2))
    idx, vals = random_labels(rng, n)
    labels = LabelSet(idx, vals)
    y = rng.integers(0, 2, n).astype(np.int8)
    y[labels.indices] = labels.values
    mu = float(rng.choice(mu_choices))
    prior = PriorField(rng.uniform(0, 1, n), np.full(n, mu))
    part = compute_neighborhoods(g, labels)
    return g, labels, y, prior, part


def analyze_golden_stats(path):
    """The table behind ``tests/data/analyze_golden.json``: its instance under
    its flags (``--mu 0``, 40 Gauss-Seidel sweeps)."""
    test_cli.TestAnalyze.write_golden_instance(path)
    g = fileio.load_graph(path / "g.txt")
    labels = fileio.load_labels(path / "labels.txt")
    y = fileio.load_labels(path / "truth.txt").values
    prior = PriorField.constant(g.node_count, mu=0.0)
    config = SolverConfig(method="iterative", tolerance=1e-30, max_iterations=40)
    pred = solve_with_prior(g, labels, prior, config)
    return hop_stats(y, prior, compute_neighborhoods(g, labels), pred)


class TestComputeBound:
    def test_smooth_exact_prior_gives_zero_bound(self):
        # two clusters, perfectly smooth labels, prior equal to the truth
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
        g = Graph.from_edges(6, edges)
        y = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        labels = LabelSet([0, 3], [0, 1])
        part = compute_neighborhoods(g, labels)
        prior = PriorField(y.astype(float), np.ones(6))
        report = compute_bound(solved_stats(g, labels, y, prior, part))
        stats = report.stats
        for k in range(1, part.max_hop + 1):
            assert stats.local_term[k] == 0.0
            assert report.accumulated_term[k] == 0.0
            assert report.informal_bound[k] == 0.0
            assert stats.avg_error[k] < 1e-10
            assert report.certified_bound[k] == 0.0 or report.bound_source[k] == "informal_fallback"

    def test_single_hop_collapse(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
        y = np.array([1, 1, 0], dtype=np.int8)
        labels = LabelSet([0], [1])
        part = compute_neighborhoods(g, labels)
        prior = PriorField.constant(3, mu=1.0)
        report = compute_bound(solved_stats(g, labels, y, prior, part))
        stats = report.stats
        assert stats.partition.max_hop == 1
        assert report.accumulated_term[1] == pytest.approx(stats.local_term[1], rel=1e-12)
        if report.bound_source[1] == "measured":
            assert report.certified_bound[1] == pytest.approx(
                stats.local_term[1] / stats.in_error_ratio[1], rel=1e-12
            )

    @pytest.mark.parametrize("seed", range(25))
    def test_bound_dominates_error_when_ratio_chain_holds(self, seed):
        # the certified bound is guaranteed exactly when the measured
        # ratio-transfer inequalities hold; audit them first
        g, labels, y, prior, part = random_bound_instance(seed)
        stats = solved_stats(g, labels, y, prior, part)
        report = compute_bound(stats)
        audit = audit_inequalities(stats)
        chain_ok = all(
            np.all(fam.margin >= -1e-12)
            for name, fam in audit.families.items()
            if name in ("ratio_transfer", "ratio_transfer_last")
        )
        if not chain_ok:
            pytest.skip("ratio chain violated on this instance; bound not certified")
        for k in range(1, part.max_hop + 1):
            if report.bound_source[k] == "measured":
                assert stats.avg_error[k] <= report.certified_bound[k] * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_certified_bound_matches_recursion_oracle(self, seed):
        # independent assembly: d and the delta-weighted sums recomputed from
        # the reported per-hop ingredients
        g, labels, y, prior, part = random_bound_instance(seed + 900)
        report = compute_bound(solved_stats(g, labels, y, prior, part))
        stats = report.stats
        l = part.max_hop
        c = [np.nan] + stats.local_term[1:].tolist()
        gam = [np.nan] + stats.gamma[1:].tolist()
        d = [0.0] * (l + 2)
        for k in range(l, 0, -1):
            d[k] = c[k] + gam[k] * d[k + 1]
        delta = [np.nan] + stats.error_ratio[1:].tolist()
        for k in range(1, l + 1):
            assert report.accumulated_term[k] == pytest.approx(d[k], rel=1e-12)
            assert report.informal_bound[k] == pytest.approx(sum(d[1:k + 1]), rel=1e-12)
            if report.bound_source[k] == "measured":
                total = 0.0
                for i in range(1, k + 1):
                    prod = 1.0
                    for j in range(i, k):
                        prod *= delta[j]
                    total += d[i] * prod
                assert report.certified_bound[k] == pytest.approx(
                    total / stats.in_error_ratio[k], rel=1e-10
                )

    @pytest.mark.parametrize("seed", [*range(25), "analyze-golden"])
    def test_measured_exactly_where_the_ratios_are_finite(self, seed, tmp_path):
        # the rule in full: hop k is measured iff a_1..a_k and b_1..b_{k-1}
        # are finite, read off the table rather than the ratio chain
        if seed == "analyze-golden":
            stats = analyze_golden_stats(tmp_path)
        else:
            stats = solved_stats(*random_bound_instance(seed))
        a, b = stats.in_error_ratio, stats.out_error_ratio
        want = [
            np.all(np.isfinite(a[1:k + 1])) and np.all(np.isfinite(b[1:k]))
            for k in range(stats.partition.max_hop + 1)
        ]
        report = compute_bound(stats)
        got = [source == "measured" for source in report.bound_source]
        assert got == want
        if seed == "analyze-golden":
            golden = json.loads((test_cli.DATA / "analyze_golden.json").read_text())
            assert report.to_dict() == golden["bound_report"]
            assert True in got[1:] and False in got

    def test_mu_monotonicity_of_ingredients(self):
        g, labels, y, _, part = random_bound_instance(77)
        n = g.node_count
        prev_gamma = None
        prev_c = None
        for mu in (0.1, 1.0, 10.0, 100.0):
            prior = PriorField.constant(n, mu=mu)
            stats = compute_bound(solved_stats(g, labels, y, prior, part)).stats
            gam = stats.gamma[1:]
            c = stats.local_term[1:]
            s_over_cin = stats.smoothness[1:] / stats.in_flow[1:]
            a_err = stats.prior_error[1:]
            if prev_gamma is not None:
                assert np.all(gam <= prev_gamma + 1e-12)
                mask = a_err <= s_over_cin
                assert np.all(c[mask] <= prev_c[mask] + 1e-12)
            prev_gamma, prev_c = gam, c

    @pytest.mark.parametrize("seed", range(10))
    def test_ingredient_ranges(self, seed):
        g, labels, y, prior, part = random_bound_instance(seed + 500)
        report = compute_bound(solved_stats(g, labels, y, prior, part))
        stats = report.stats
        for k in range(1, part.max_hop + 1):
            assert 0.0 <= stats.conductance[k] <= 1.0
            assert stats.gamma[k] >= 0.0
            assert stats.local_term[k] >= 0.0
            assert report.accumulated_term[k] >= 0.0
            assert stats.smoothness[k] >= 0.0
            assert 0.0 <= stats.prior_error[k] <= 1.0
            assert 0.0 <= stats.avg_error[k] <= 1.0

    def test_report_round_trips_to_dict(self):
        g, labels, y, prior, part = random_bound_instance(5)
        report = compute_bound(solved_stats(g, labels, y, prior, part))
        d = report.to_dict()
        assert d["labeled_count"] == len(labels)
        assert len(d["hops"]) == part.max_hop
        assert d["hops"][0]["hop"] == 1


def mixed_row_length_instance(seed, n=300):
    rng = np.random.default_rng(seed)
    g = Graph.from_edges(n, mixed_row_length_edges(rng, n))
    labels = LabelSet(*random_labels(rng, n))
    y = rng.integers(0, 2, n).astype(np.int8)
    y[labels.indices] = labels.values
    prior = PriorField(rng.uniform(0, 1, n), rng.uniform(0, 2, n))
    return g, labels, y, prior, compute_neighborhoods(g, labels)


def layered_instance(sizes, seed):
    """Hop ``k`` has ``sizes[k]`` nodes, under shuffled ids: each node past
    hop 0 is joined to a random node one hop in, and as many random edges
    again run one hop in and within the hop, with weights and prior weights
    over six decades, so that the order of a sum shows in its last bits.
    The scores are random off the labeled set."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum([0, *sizes])
    pairs = []
    for k in range(1, len(sizes)):
        lo, mid, hi = starts[k - 1], starts[k], starts[k + 1]
        child = np.arange(mid, hi)
        pairs += [np.column_stack((rng.integers(lo, mid, child.size), child)),
                  np.column_stack((rng.integers(lo, mid, child.size), rng.permutation(child))),
                  np.column_stack((rng.integers(mid, hi, child.size), child))]
    pairs = np.sort(np.concatenate(pairs), axis=1)
    pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    n = int(starts[-1])
    node = rng.permutation(n)  # the id of the node at each position
    w = rng.uniform(0.5, 2.0, len(pairs)) * 10.0 ** rng.integers(-3, 3, len(pairs))
    g = Graph.from_edges(n, np.column_stack((node[pairs], w)))
    y = rng.integers(0, 2, n).astype(np.int8)
    labeled = node[: sizes[0]]
    labels = LabelSet(labeled, y[labeled])
    prior = PriorField(rng.uniform(0, 1, n), rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-3, 3, n))
    f = rng.uniform(0, 1, n)
    f[labeled] = y[labeled]
    return g, y, prior, compute_neighborhoods(g, labels), f


class TestHopStats:
    @pytest.mark.parametrize("sizes", [
        [1, 7, 8, 9, 127, 128, 129, 1100],
        [9, 1, 129, 8, 1500, 7, 127, 1],
        [128, 1, 1200, 127, 9],
    ])
    def test_every_column_bitwise_equal_to_per_hop_sums(self, sizes):
        g, y, prior, part, f = layered_instance(sizes, len(sizes))
        assert [h.size for h in part.hops] == sizes
        stats = hop_stats(y, prior, part, f)

        def hop_sums(values):
            return loop_hop_sums(values, part)

        inw, betw, outw = loop_directional_weights(g, part)
        err, pull, mu = np.abs(f - y), np.abs(prior.h - y), prior.mu
        size = np.array(sizes)
        in_flow, between, out_weight = hop_sums(inw), hop_sums(betw), hop_sums(outw)
        avg = hop_sums(err) / size
        with np.errstate(invalid="ignore", divide="ignore"):
            e_in, e_bet, e_out = (np.where(flow > 0, hop_sums(w * err) / flow, np.nan)
                                  for w, flow in ((inw, in_flow), (betw, between), (outw, out_weight)))
            a, b = (np.where(avg > 0, e / avg, np.nan) for e in (e_in, e_out))
        mu_total, pull_error, mu_error = hop_sums(mu), hop_sums(mu * pull), hop_sums(mu * err)
        prior_error = hop_sums(pull) / size
        smoothness = np.array([loop_smoothness(g, y, part, k) for k in range(len(sizes))])
        for column in (mu_total, pull_error, mu_error, prior_error, smoothness):
            column[0] = 0.0
        denom = in_flow[1:] + mu_total[1:]
        local_term, gamma = np.zeros((2, len(sizes)))
        local_term[1:] = (smoothness[1:] + pull_error[1:]) / denom
        gamma[1:-1] = in_flow[2:] / denom[:-1]
        want = {
            "size": size, "in_flow": in_flow, "between_flow": between,
            "out_flow": np.append(in_flow[1:], 0.0), "mu_total": mu_total,
            "pull_error": pull_error, "mu_error": mu_error, "smoothness": smoothness,
            "prior_error": prior_error, "local_term": local_term, "gamma": gamma,
            "avg_error": avg, "in_error": e_in, "between_error": e_bet, "out_error": e_out,
            "in_error_ratio": a, "out_error_ratio": b,
        }
        for name, column in want.items():
            assert getattr(stats, name).tobytes() == column.tobytes(), name

    @pytest.mark.parametrize("seed", range(3))
    def test_smoothness_and_node_error_bitwise_equal_to_loops(self, seed):
        g, labels, y, prior, part = mixed_row_length_instance(seed + 80)
        pred = solve_with_prior(g, labels, prior)
        stats = hop_stats(y, prior, part, pred)
        for k in range(1, part.max_hop + 1):
            want = loop_smoothness(g, y, part, k)
            assert stats.smoothness[k].tobytes() == np.float64(want).tobytes()
        fam = audit_inequalities(stats).families["node_error"]
        got = [
            (f"node {i}", lhs, rhs)
            for i, lhs, rhs in zip(fam.ids.tolist(), fam.lhs.tolist(), fam.rhs.tolist())
        ]
        want = [
            (f"node {i}", lhs, rhs) for i, lhs, rhs in loop_node_error(g, y, prior, pred.f, part)
        ]
        assert len(got) == len(want) == g.node_count - len(labels) - part.unreachable.size
        assert [c[0] for c in got] == [w[0] for w in want]
        assert np.array([c[1:] for c in got]).tobytes() == np.array([w[1:] for w in want]).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_flows_errors_and_prior_terms_bitwise_equal_to_loops(self, seed):
        g, labels, y, prior, part = mixed_row_length_instance(seed + 90)
        pred = solve_with_prior(g, labels, prior)
        stats = hop_stats(y, prior, part, pred)
        got = {
            "flows": (stats.in_flow, stats.between_flow, stats.out_flow),
            "errors": (stats.avg_error, stats.in_error, stats.between_error, stats.out_error,
                       stats.in_error_ratio, stats.out_error_ratio),
            "prior terms": (stats.mu_total, stats.pull_error, stats.mu_error, stats.prior_error),
        }
        want = {
            "flows": loop_flows(g, part),
            "errors": loop_hop_errors(g, pred.f, y, part),
            "prior terms": loop_prior_terms(prior, pred.f, y, part),
        }
        for name in got:
            assert np.array(got[name]).tobytes() == np.array(want[name]).tobytes(), name
        assert stats.size.tolist() == [h.size for h in part.hops]

    def test_directional_weights_built_once(self, monkeypatch):
        g, labels, y, prior, part = mixed_row_length_instance(7)
        pred = solve_with_prior(g, labels, prior)
        calls = []
        original = bounds_mod._directional_weights

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bounds_mod, "_directional_weights", counted)
        stats = hop_stats(y, prior, part, pred)
        audit_inequalities(stats)
        compute_bound(stats)
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected_naming_the_first_node(self, bad):
        g = path_graph(5)
        y = np.array([1, 1, 0, 0, 1], dtype=np.int8)
        labels = LabelSet([0], [1])
        part = compute_neighborhoods(g, labels)
        prior = PriorField.constant(5, mu=1.0)
        f = solve_with_prior(g, labels, prior).f.copy()
        f[[3, 4]] = bad
        with pytest.raises(ValueError, match=f"node 3 has non-finite prediction {bad!r}"):
            hop_stats(y, prior, part, f)

    def test_prediction_wrong_on_labeled_node_rejected(self):
        g = path_graph(3)
        y = np.array([1, 0, 1], dtype=np.int8)
        labels = LabelSet([0, 2], [1, 1])
        part = compute_neighborhoods(g, labels)
        prior = PriorField.constant(3, mu=1.0)
        bad = solve_with_prior(g, labels, prior).f.copy()
        bad[2] = 0.75
        with pytest.raises(ValueError, match="labeled node 2 has prediction 0.75, truth 1"):
            hop_stats(y, prior, part, bad)

    @pytest.mark.parametrize("prediction_size, prior_size, message", [
        (4, 5, "prediction does not cover every node"),
        (5, 4, "prior size does not match graph"),
    ], ids=["prediction", "prior"])
    def test_input_of_another_size_rejected(self, prediction_size, prior_size, message):
        g = path_graph(5)
        y = np.array([1, 1, 0, 0, 1], dtype=np.int8)
        labels = LabelSet([0], [1])
        with pytest.raises(ValueError, match=message):
            hop_stats(y, PriorField.constant(prior_size, mu=1.0),
                      compute_neighborhoods(g, labels), y[:prediction_size].astype(float))

    def test_hop_without_in_flow_or_prior_weight_rejected(self):
        # node 1 reaches label 0 only by a zero-weight edge, and mu = 0
        g = Graph(np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]), np.array([0.0, 0.0, 1.0, 1.0]))
        labels = LabelSet([0], [1])
        y = np.array([1, 1, 1], dtype=np.int8)
        with pytest.raises(ValueError, match="hop 1 has zero in-flow and zero prior weight"):
            hop_stats(y, PriorField.constant(3), compute_neighborhoods(g, labels), y.astype(float))

    def test_compute_bound_needs_a_solver_prediction(self):
        g, labels, y, prior, part = random_bound_instance(1)
        pred = solve_with_prior(g, labels, prior)
        with pytest.raises(TypeError):
            compute_bound(hop_stats(y, prior, part, pred.f))


class TestAuditInequalities:
    @pytest.mark.parametrize("seed", range(15))
    def test_unconditional_families_pass_at_optimum(self, seed):
        # node_error and the hop transfer inequalities hold at any exact
        # optimum; the ratio-form checks are assumption-conditional and
        # only reported
        g, labels, y, prior, part = random_bound_instance(seed + 40, n_max=20)
        pred = solve_with_prior(g, labels, prior)
        audit = audit_inequalities(hop_stats(y, prior, part, pred))
        for name, fam in audit.families.items():
            if name in ("node_error", "hop_transfer", "hop_transfer_last"):
                assert fam.passed.all(), (name, fam.unit, fam.ids[~fam.passed])

    def test_perturbation_detected(self):
        # smooth instance where the optimum is exact, then poke one node
        edges = [(0, 1, 1.0), (1, 2, 1.0)]
        g = Graph.from_edges(3, edges)
        y = np.array([1, 1, 1], dtype=np.int8)
        labels = LabelSet([0], [1])
        part = compute_neighborhoods(g, labels)
        prior = PriorField(y.astype(float), np.ones(3))
        pred = solve_with_prior(g, labels, prior)
        assert audit_inequalities(hop_stats(y, prior, part, pred)).passed
        bad = pred.f.copy()
        bad[1] -= 0.2
        audit = audit_inequalities(hop_stats(y, prior, part, bad))
        assert not audit.passed
        assert not audit.families["node_error"].passed.all()

    def test_single_hop_instance_families(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        y = np.array([1, 0], dtype=np.int8)
        labels = LabelSet([0], [1])
        part = compute_neighborhoods(g, labels)
        prior = PriorField.constant(2, mu=1.0)
        pred = solve_with_prior(g, labels, prior)
        audit = audit_inequalities(hop_stats(y, prior, part, pred))
        families = set(audit.families)
        assert "hop_transfer" not in families
        assert "hop_transfer_last" in families
        assert audit.passed

    def test_worst_margins_reported(self):
        g, labels, y, prior, part = random_bound_instance(3, n_max=15)
        pred = solve_with_prior(g, labels, prior)
        audit = audit_inequalities(hop_stats(y, prior, part, pred))
        d = audit.to_dict()
        assert set(d["families"]) == {name for name, fam in audit.families.items() if fam.ids.size}
        for fam, rec in d["families"].items():
            assert rec["worst_margin"] >= -AUDIT_SLACK
