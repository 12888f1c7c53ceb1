import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from priorprop.bounds import hop_stats
from priorprop.evaluation import SyntheticSpec, generate_clusters
from priorprop.graph import (
    MAX_NODES,
    Graph,
    GraphFormatError,
    LabelSet,
    NeighborhoodPartition,
    average_degree,
    build_threshold_graph,
    compute_neighborhoods,
)
from priorprop.graph import _lerp, _nearest_pairs, _quantile_positions
from priorprop.solver import PriorField

from oracles import (
    cdist_threshold_graph,
    feature_points,
    geometric_graph,
    loop_from_edges,
    loop_hops,
    loop_row_sums,
    mixed_row_length_edges,
    neighbors,
    random_connected_graph,
    random_labels,
)
from test_acceptance import _bound_instance


def brute_force_threshold_edges(points, t):
    """Reference edge set: strict < linear-interpolated quantile of all N^2 distances."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    dists = []
    for i in range(n):
        for j in range(n):
            dists.append(float(np.linalg.norm(pts[i] - pts[j])))
    tau = np.quantile(np.array(dists), t / n)
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if np.linalg.norm(pts[i] - pts[j]) < tau
    }


class TestGraphConstruction:
    def test_symmetry_and_degree_cache(self):
        g = Graph.from_edges(4, [(0, 1, 2.0), (2, 1, 0.5), (3, 0, 1.25)])
        for i in range(4):
            nbrs, w = neighbors(g, i)
            for j, wv in zip(nbrs, w):
                back_n, back_w = neighbors(g, int(j))
                pos = list(back_n).index(i)
                assert back_w[pos] == wv
            assert g.degrees[i] == np.sum(w)

    def test_rows_name_each_entry_once_and_are_built_once(self):
        g = Graph.from_edges(5, [(0, 1, 2.0), (2, 1, 0.5), (3, 0, 1.25)])
        assert g.rows.tolist() == [0, 0, 1, 1, 2, 3]
        assert g.rows is g.rows
        assert not g.rows.flags.writeable

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            Graph.from_edges(2, [(0, 0, 1.0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, [(0, 1, -0.5)])

    def test_rejects_conflicting_duplicate(self):
        with pytest.raises(GraphFormatError, match="conflicting"):
            Graph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_equal_duplicate_collapses(self):
        g = Graph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
        assert g.edge_count == 1

    def test_zero_weight_edges_dropped(self):
        g = Graph.from_edges(3, [(0, 1, 0.0), (1, 2, 1.0)])
        assert g.edge_count == 1
        assert g.degrees[0] == 0.0

    @pytest.mark.parametrize("records, node", [
        ([(0, 1, 1e308), (0, 2, 1e308), (1, 3, 1.0)], 0),
        ([(3, 0, 1.0), (2, 1, 1e308), (3, 2, 1e308), (1, 0, 1e308)], 1),
    ])
    def test_weights_summing_past_the_float_range_name_the_node(self, records, node):
        with pytest.raises(GraphFormatError,
                           match=f"edge weights at node {node} sum past the float range"):
            Graph.from_edges(4, records)

    def test_weights_summing_just_below_the_float_range_build(self):
        g = Graph.from_edges(4, [(0, 1, 1e308), (0, 2, 0.7e308), (1, 3, 1.0)])
        assert g.degrees.tolist() == [1.7e308, 1e308, 0.7e308, 1.0]

    def test_out_of_range_index(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            Graph.from_edges(2, [(0, 2, 1.0)])

    def test_neighbor_lists_sorted(self):
        g = Graph.from_edges(5, [(0, 4, 1.0), (0, 2, 1.0), (0, 1, 1.0), (0, 3, 1.0)])
        nbrs, _ = neighbors(g, 0)
        assert list(nbrs) == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "records",
        [[(0, 1, 0.0), (1, 0, 2.0)], [(0, 1, 2.0), (1, 0, 0.0)]],
        ids=["zero-first", "zero-last"],
    )
    def test_zero_weight_duplicate_conflicts_in_either_order(self, records):
        with pytest.raises(GraphFormatError, match=r"conflicting weights .* for edge \(0, 1\)"):
            Graph.from_edges(3, records)

    def test_conflict_names_first_offending_record(self):
        records = [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 1.0), (2, 1, 4.0), (0, 1, 3.0)]
        with pytest.raises(GraphFormatError) as exc:
            Graph.from_edges(3, records)
        assert str(exc.value) == "conflicting weights 1.0 and 4.0 for edge (1, 2)"

    def test_conflict_before_later_invalid_record(self):
        with pytest.raises(GraphFormatError, match="conflicting"):
            Graph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0), (2, 2, 1.0)])
        with pytest.raises(GraphFormatError, match="self-loop"):
            Graph.from_edges(3, [(0, 1, 1.0), (2, 2, 1.0), (1, 0, 2.0)])

    @pytest.mark.parametrize(
        "record", [(0.7, 1, 1.0), (0, 1.5, 1.0), (np.nan, 1, 1.0), (0, np.inf, 1.0)]
    )
    def test_rejects_non_integral_endpoint(self, record):
        with pytest.raises(GraphFormatError, match="non-integral or non-finite endpoint"):
            Graph.from_edges(3, [(1, 2, 1.0), record])

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1, 1.0), (1, 2)],
            [(0, 1, 1.0, 2.0)],
            [("a", 1, 1.0)],
            [(0, 1, [1.0])],
            [0, 1, 1.0],
            np.zeros((2, 2)),
        ],
        ids=["ragged", "four-fields", "non-numeric", "nested", "flat", "two-columns"],
    )
    def test_rejects_malformed_records(self, edges):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, edges)

    def test_accepts_array_generator_and_empty_input(self):
        records = [(2, 0, 1.5), (0, 1, 1.0)]
        from_list = Graph.from_edges(3, records)
        for edges in (np.array(records), (r for r in records)):
            g = Graph.from_edges(3, edges)
            assert g.edge_list() == from_list.edge_list() == [(0, 1, 1.0), (0, 2, 1.5)]
        for empty in ([], np.empty((0, 3))):
            assert Graph.from_edges(3, empty).edge_count == 0

    @pytest.mark.parametrize("node_count", [2.5, 2.0, "3", None])
    def test_non_integral_node_count_is_a_format_error(self, node_count):
        with pytest.raises(GraphFormatError, match=re.escape(
                f"node_count must be an integer, got {node_count!r}")):
            Graph.from_edges(node_count, [])
        with pytest.raises(GraphFormatError, match="node_count must be positive"):
            Graph.from_edges(0, [])

    def test_node_count_above_the_key_limit_is_rejected_before_allocating(self):
        assert MAX_NODES + 1 == 3_037_000_500
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="exceeds the limit of 3037000499"):
                Graph.from_edges(3_037_000_500, [(0, 1, 1.0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@st.composite
def edge_record_lists(draw):
    # small graphs make duplicates and conflicts likely; large ones make edge
    # keys exceed 2**32 and scipy's int32 index arrays come back as int64
    n = draw(st.one_of(st.integers(2, 7), st.integers(8, 100_000)))
    # endpoints come from a few nodes, so edges repeat at every size; some
    # count down from the last node, so that large graphs have large keys
    from_top = st.integers(0, min(n - 1, 50)).map(lambda d: n - 1 - d)
    node = st.one_of(st.integers(0, n - 1), from_top)
    nodes = draw(st.lists(node, min_size=2, max_size=min(n, 8), unique=True))
    k = len(nodes)
    pairs = draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(1, k - 1)).map(
            lambda p: (nodes[p[0]], nodes[(p[0] + p[1]) % k])
        ),
        max_size=25,
    ))
    if draw(st.booleans()):
        # one weight per edge: equal duplicates and zero weights, no conflicts
        table = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=5))
        records = [(i, j, table[(min(i, j) * n + max(i, j)) % len(table)]) for i, j in pairs]
    else:
        # weights drawn per record, so conflicts (zero included) are likely
        weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                                min_size=len(pairs), max_size=len(pairs)))
        records = [(i, j, w) for (i, j), w in zip(pairs, weights)]
    if draw(st.booleans()):
        bad = draw(st.sampled_from([(-1, 0, 1.0), (0, n, 1.0), (0.5, 1, 1.0), (1, 1, 1.0),
                                    (0, 1, -1.0), (0, 1, np.inf), (0, 1, np.nan)]))
        records.insert(draw(st.integers(0, len(records))), bad)
    return n, records


# a graph whose edge keys exceed 2**32, with and without a conflict
LARGE_KEYS = [(99_999, 99_998, 1.5), (50_000, 99_999, 2.0), (99_998, 99_999, 1.5),
              (0, 99_999, 0.25), (99_999, 50_000, 2.0)]


class TestFromEdgesMatchesLoopReference:
    @settings(max_examples=300)
    @given(edge_record_lists())
    @example((100_000, LARGE_KEYS))
    @example((100_000, LARGE_KEYS + [(99_998, 99_999, 3.0)]))
    def test_bitwise_equal_or_same_error(self, case):
        n, records = case
        try:
            expected = loop_from_edges(n, records)
        except GraphFormatError as exc:
            for edges in (records, np.array(records, dtype=np.float64).reshape(-1, 3)):
                with pytest.raises(GraphFormatError) as got:
                    Graph.from_edges(n, edges)
                assert str(got.value) == str(exc)
            return
        for edges in (records, np.array(records, dtype=np.float64).reshape(-1, 3)):
            g = Graph.from_edges(n, edges)
            for got, want in zip((g.indptr, g.indices, g.weights, g.degrees), expected):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestFromEdgesIgnoresRecordOrder:
    def test_shuffled_flipped_and_duplicated_copies_give_the_same_bytes(self):
        n = 2_000
        rng = np.random.default_rng(20)
        rec = geometric_graph(n, 2, 13.0, seed=20)
        canonical = rec[np.lexsort((rec[:, 1], rec[:, 0]))]
        want = loop_from_edges(n, canonical)
        flipped = canonical.copy()
        swap = rng.random(len(rec)) < 0.5
        flipped[swap, 0], flipped[swap, 1] = canonical[swap, 1], canonical[swap, 0]
        copies = {
            "canonical": canonical,
            "shuffled": canonical[rng.permutation(len(rec))],
            "flipped": flipped[rng.permutation(len(rec))],
            "duplicated": np.vstack((flipped, canonical))[rng.permutation(2 * len(rec))],
        }
        for name, edges in copies.items():
            g = Graph.from_edges(n, edges)
            for got, expected in zip((g.indptr, g.indices, g.weights, g.degrees), want):
                assert got.dtype == expected.dtype, name
                assert got.tobytes() == expected.tobytes(), name


class TestRowSumsMatchLoopReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_degrees_and_row_sums_bitwise_equal(self, seed):
        rng = np.random.default_rng(seed + 70)
        g = Graph.from_edges(400, mixed_row_length_edges(rng, 400))
        lengths = np.diff(g.indptr)
        assert lengths.min() < 8 and np.any((lengths >= 8) & (lengths <= 128))
        assert lengths.max() > 128
        assert g.degrees.tobytes() == loop_row_sums(g.indptr, g.weights).tobytes()
        # each node's label disagreement, added entry by entry like its degree
        y = rng.integers(0, 2, 400).astype(np.float64)
        part = compute_neighborhoods(g, LabelSet([0], [int(y[0])]))
        stats = hop_stats(y, PriorField.constant(400), part, y)
        disagreement = g.weights * np.abs(y[g.indices] - np.repeat(y, lengths))
        want = loop_row_sums(g.indptr, disagreement)
        assert stats.node_smoothness.tobytes() == want.tobytes()

    def test_empty_rows_sum_to_zero(self):
        degrees = Graph.from_edges(4, [(1, 2, 1.5)]).degrees
        assert degrees.dtype == np.float64 and degrees.tolist() == [0.0, 1.5, 1.5, 0.0]
        degrees = Graph.from_edges(3, np.empty((0, 3))).degrees
        assert degrees.dtype == np.float64 and degrees.tolist() == [0.0, 0.0, 0.0]


class TestThresholdGraph:
    @staticmethod
    def spread_points(spans):
        """60 random points whose bounding box spans ``spans``."""
        x = np.random.default_rng(4).uniform(0, 1, size=(60, len(spans)))
        x[0], x[1] = 0.0, 1.0
        return x * np.asarray(spans)

    @pytest.mark.parametrize("spans, largest", [((1e155,), "1e+155"),
                                                ((1.1e154, 1.1e154), "1.1e+154")])
    def test_features_whose_squared_distances_overflow_rejected(self, spans, largest):
        with pytest.raises(ValueError, match=f"features span up to {re.escape(largest)} along"):
            build_threshold_graph(self.spread_points(spans), t=5.0)

    def test_features_whose_squared_distances_stay_finite_build(self):
        g = build_threshold_graph(self.spread_points((1e153, 1.0)), t=5.0)
        assert g.edge_count > 0

    def test_collinear_points_complete_when_threshold_high(self):
        feats = np.array([[0.0], [1.0], [2.0]])
        g = build_threshold_graph(feats, t=6.0)
        assert g.edge_count == 3

    def test_two_far_clusters_stay_separate(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 0.4, size=(6, 2))
        b = rng.uniform(0, 0.4, size=(6, 2)) + 100.0
        pts = np.vstack([a, b])
        # every t whose quantile lands between the intra and inter scales
        g = build_threshold_graph(pts, t=4.0)
        expected = brute_force_threshold_edges(pts, 4.0)
        assert set((i, j) for i, j, _ in g.edge_list()) == expected
        for i, j, _ in g.edge_list():
            assert (i < 6) == (j < 6)

    def test_unit_square_matches_brute_force(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = build_threshold_graph(pts, t=2.0)
        assert set((i, j) for i, j, _ in g.edge_list()) == brute_force_threshold_edges(pts, 2.0)

    def test_duplicated_points_never_self_connect(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        for t in (2.0, 3.0, 7.5):
            g = build_threshold_graph(pts, t=t)
            for i, j, _ in g.edge_list():
                assert i != j
        # with t=3 the threshold is positive, so the duplicates get connected
        g = build_threshold_graph(pts, t=3.0)
        assert (0, 1) in {(i, j) for i, j, _ in g.edge_list()}

    def test_all_weights_one(self):
        pts = np.random.default_rng(0).normal(size=(10, 3))
        g = build_threshold_graph(pts, t=4.0)
        assert all(w == 1.0 for _, _, w in g.edge_list())

    def test_average_degree_near_target(self):
        pts = np.random.default_rng(1).normal(size=(400, 5))
        g = build_threshold_graph(pts, t=10.0)
        assert abs(average_degree(g) - 10.0) < 2.0

    def test_rejects_bad_inputs(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            build_threshold_graph(pts, t=0.0)
        with pytest.raises(ValueError, match="degree target"):
            build_threshold_graph(pts, t=np.nan)
        with pytest.raises(ValueError):
            build_threshold_graph(pts, t=301.0)  # percentile above 100
        with pytest.raises(ValueError):
            build_threshold_graph(np.array([[np.nan, 0.0], [0.0, 1.0]]), t=1.0)
        with pytest.raises(ValueError):
            build_threshold_graph(np.zeros((1, 2)), t=0.5)


THRESHOLD_CASES = [
    # (kind, n, d, t)
    ("grid", 60, 2, 4.0),
    ("grid", 90, 2, 7.0),
    ("grid", 80, 1, 10.0),
    ("grid", 70, 5, 12.0),
    ("tripled", 90, 2, 1.7),
    ("tripled", 90, 2, 4.0),
    ("tripled", 60, 10, 7.0),
    ("normal", 50, 2, 0.5),  # every pool position used is a self-zero
    ("tripled", 60, 2, 0.9),
    ("normal", 50, 3, 49.5),  # q just below 1
    ("normal", 50, 3, 50.0),  # q = 1: strictly below the largest distance
    ("normal", 50, 3, 51.0),  # q > 1: the complete graph
    ("normal", 40, 2, 400.0),
    ("normal", 200, 1, 10.0),
    ("normal", 200, 5, 10.0),
    ("normal", 200, 10, 10.0),
    ("normal", 200, 10, 1.0),
    # the radius search of build_threshold_graph
    ("identical", 40, 3, 10.0),  # a zero diameter: every pair, without a query
    ("piled", 60, 2, 20.0),  # a zero first radius holds too few pairs
    ("normal", 200, 20, 10.0),  # growth by the 20th root of the pair deficit
    ("normal", 60, 1, 60.0),  # t = n in 1-D: every pair, at the diameter
    ("clusters", 40, 2, 29.0),  # the last pairs needed cross a gap of 1e6 radii
    ("blob", 1200, 2, 2.0),  # the first radius is the blob's, not the outliers'
]


class TestThresholdGraphMatchesDistanceMatrix:
    @pytest.mark.parametrize("kind, n, d, t", THRESHOLD_CASES)
    def test_bitwise_equal_to_cdist_quantile(self, kind, n, d, t):
        x = feature_points(kind, n, d, seed=n + d)
        got, want = build_threshold_graph(x, t), cdist_threshold_graph(x, t)
        for field in ("indptr", "indices", "weights", "degrees"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_cases_cover_empty_partial_and_complete_graphs(self):
        counts = {
            (kind, t): build_threshold_graph(feature_points(kind, n, d, seed=n + d), t).edge_count
            for kind, n, d, t in THRESHOLD_CASES
        }
        assert counts[("normal", 0.5)] == 0
        assert counts[("normal", 51.0)] == 50 * 49 // 2
        assert counts[("normal", 400.0)] == 40 * 39 // 2
        assert 0 < counts[("normal", 50.0)] < 50 * 49 // 2

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 1001, 250_000])
    def test_quantile_positions_match_numpy(self, m):
        rng = np.random.default_rng(m)
        # few distinct values, so neighbouring positions often tie
        pool = rng.integers(0, 50, size=m) * rng.uniform(0.5, 2.0)
        ordered = np.sort(pool)
        qs = [0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12, 1.0 / m, (m - 1.0) / m]
        for q in qs + rng.uniform(0, 1, size=40).tolist():
            lo, hi, gamma = _quantile_positions(m, q)
            got = np.float64(_lerp(float(ordered[lo]), float(ordered[hi]), gamma))
            assert got.tobytes() == np.float64(np.quantile(pool, q)).tobytes(), q

    def test_a_tight_blob_in_outliers_builds_in_bounded_memory(self):
        # a first radius at the outliers' scale would return all 8M blob pairs
        x = feature_points("blob", 16_000, 2, seed=0)
        tracemalloc.start()
        try:
            g = build_threshold_graph(x, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert g.edge_count == 8_000

    def test_twenty_thousand_nodes_in_bounded_memory(self):
        # the N**2 distance matrix alone would take 3.2 GB
        x, _ = generate_clusters(SyntheticSpec(points_per_cluster=10_000))
        tracemalloc.start()
        try:
            g = build_threshold_graph(x, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert abs(average_degree(g) - 10.0) < 2.0


class RecordingTree(cKDTree):
    """A kd-tree that records the radius of each ``query_pairs`` call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.radii = []

    def query_pairs(self, r, *args, **kwargs):
        self.radii.append(r)
        return super().query_pairs(r, *args, **kwargs)


def search(x, k, need):
    """``_nearest_pairs`` over a recording tree: the pairs as a set, and the radii."""
    tree = RecordingTree(x)
    pairs, dist = _nearest_pairs(tree, x, k, need)
    assert dist.tobytes() == cdist(x, x)[pairs[:, 0], pairs[:, 1]].tobytes()
    return set(map(tuple, pairs.tolist())), tree.radii


class TestRadiusSearch:
    def test_a_need_of_every_pair_ends_at_the_diameter(self):
        x = feature_points("normal", 60, 1, seed=0)
        pairs, radii = search(x, 59, 60 * 59 // 2)
        assert pairs == {(i, j) for i in range(60) for j in range(i + 1, 60)}
        assert radii and all(a < b for a, b in zip(radii, radii[1:]))
        assert radii[-1] < float(np.ptp(x)) <= 2 * radii[-1]  # the 1-D diameter

    def test_identical_points_take_every_pair_without_a_query(self):
        pairs, radii = search(feature_points("identical", 30, 3, seed=0), 5, 10)
        assert len(pairs) == 30 * 29 // 2 and radii == []

    def test_a_zero_first_radius_moves_to_a_positive_one(self):
        x = feature_points("piled", 60, 2, seed=0)
        pairs, radii = search(x, 20, 30 * 29 // 2 + 1)
        assert radii[0] == 0 < radii[1]
        assert len(pairs) > 30 * 29 // 2

    def test_a_gap_is_crossed_by_doubling(self):
        x = feature_points("clusters", 40, 2, seed=0)
        within = 30 * 29 // 2 + 10 * 9 // 2
        pairs, radii = search(x, 29, within + 1)
        assert len(pairs) > within
        assert radii[-1] > 1e5 * radii[0]
        assert len(radii) < 40  # a rise of 1e5 at 1.1 per round takes 120

    @pytest.mark.parametrize("kind, d", [("grid", 2), ("tripled", 3), ("normal", 20)])
    def test_every_need_ends_with_the_nearest_pairs(self, kind, d):
        x = feature_points(kind, 45, d, seed=d)
        dist = cdist(x, x)
        iu, ju = np.triu_indices(45, 1)
        order = np.argsort(dist[iu, ju], kind="stable")
        for need in (1, 2, 17, 45, 300, 989, 990):
            pairs, _ = search(x, 3, need)
            # any pair tied with the need-th nearest may stand in for another
            cut = dist[iu, ju][order[need - 1]]
            assert {(i, j) for i, j in zip(iu, ju) if dist[i, j] < cut} <= pairs
            assert sum(dist[i, j] <= cut for i, j in pairs) >= need

    def test_demo_features_take_at_most_three_queries(self, monkeypatch):
        trees = []

        def recording(x):
            trees.append(RecordingTree(x))
            return trees[-1]

        monkeypatch.setattr("scipy.spatial.cKDTree", recording)
        x, _ = generate_clusters(SyntheticSpec(points_per_cluster=1250, seed=0))
        build_threshold_graph(x, 10.0)
        assert 1 <= len(trees[0].radii) <= 3


class TestLabelSet:
    def test_sorted_and_validated(self):
        ls = LabelSet([3, 1], [0, 1])
        assert list(ls.indices) == [1, 3]
        assert list(ls.values) == [1, 0]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            LabelSet([1, 1], [0, 1])

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            LabelSet([0], [2])

    @pytest.mark.parametrize("indices, values, message", [
        (np.array([0]), np.array([257]), "0 or 1"),
        ([0], np.array([0.7]), "0 or 1"),
        ([0], [256], "0 or 1"),
        ([0.5], [1], "finite integers"),
        ([np.nan], [1], "finite integers"),
        ([np.inf], [1], "finite integers"),
        ([1e30], [1], "finite integers"),
        (np.array([2**64 - 1], dtype=np.uint64), [1], "finite integers"),
    ])
    def test_raw_values_validated_before_the_cast(self, indices, values, message):
        # cast first, 257 and 0.7 became labels 1 and 0, and index 0.5 node 0
        with pytest.raises(ValueError, match=message):
            LabelSet(indices, values)

    def test_boolean_mask_is_not_read_as_indices(self):
        # it used to be taken as nodes [0, 1]
        with pytest.raises(ValueError, match="labeled indices must be finite integers"):
            LabelSet(np.array([True, False]), [1, 0])

    def test_integral_floats_accepted(self):
        ls = LabelSet([2.0, 0.0], [1.0, 0.0])
        assert ls.indices.tolist() == [0, 2]
        assert ls.values.tolist() == [0, 1]


class TestNeighborhoods:
    def test_path_layers(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        part = compute_neighborhoods(g, LabelSet([0], [1]))
        assert [h.tolist() for h in part.hops] == [[0], [1], [2]]
        assert part.unreachable.size == 0
        assert part.max_hop == 2

    def test_isolated_node_unreachable(self):
        g = Graph.from_edges(3, [(0, 1, 1.0)])
        part = compute_neighborhoods(g, LabelSet([0], [1]))
        assert part.unreachable.tolist() == [2]
        assert part.hop_of[2] == -1

    def test_both_endpoints_labeled(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        part = compute_neighborhoods(g, LabelSet([0, 1], [0, 1]))
        assert part.max_hop == 0
        assert part.hops[0].tolist() == [0, 1]

    def test_requires_labels(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            compute_neighborhoods(g, LabelSet([], []))

    def test_stored_zero_weight_is_an_edge(self):
        # the path 0-1-2-3 built from its CSR arrays, edge 1-2 stored with weight 0
        indptr = np.array([0, 1, 3, 5, 6])
        indices = np.array([1, 0, 2, 1, 3, 2])
        weights = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        g = Graph(indptr, indices, weights)
        labels = LabelSet([0], [1])
        part = compute_neighborhoods(g, labels)
        assert part.hop_of.dtype == np.int64
        assert part.hop_of.tolist() == [0, 1, 2, 3]
        assert [h.tolist() for h in part.hops] == loop_hops(g, labels)[0]
        truth = np.ones(4, dtype=np.int8)
        stats = hop_stats(truth, PriorField.constant(4, mu=1.0), part, truth.astype(np.float64))
        assert stats.in_flow.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_hop_sets_partition_nodes(self):
        rng = np.random.default_rng(11)
        edges = random_connected_graph(rng, 20, extra_edges=10)
        g = Graph.from_edges(20, edges)
        part = compute_neighborhoods(g, LabelSet([4, 17], [0, 1]))
        seen = np.concatenate([*part.hops, part.unreachable])
        assert sorted(seen.tolist()) == list(range(20))
        # every node at hop k >= 1 has an edge into hop k-1 and none closer than k-1
        for k in range(1, part.max_hop + 1):
            for i in part.hops[k]:
                nbrs, _ = neighbors(g, int(i))
                nbr_hops = part.hop_of[nbrs]
                assert (nbr_hops == k - 1).any()
                assert not (nbr_hops < k - 1).any()

    @given(st.integers(0, 2**31 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        edges = random_connected_graph(rng, n, extra_edges=5)
        g = Graph.from_edges(n, edges)
        labeled = [2, 9]
        part = compute_neighborhoods(g, LabelSet(labeled, [0, 1]))
        perm = rng.permutation(n)
        g2 = Graph.from_edges(n, [(perm[i], perm[j], w) for i, j, w in edges])
        part2 = compute_neighborhoods(
            g2, LabelSet([perm[i] for i in labeled], [0, 1])
        )
        for i in range(n):
            assert part.hop_of[i] == part2.hop_of[perm[i]]


def bound_instance_graphs():
    """The graphs and labels the acceptance criteria 4 and 7 draw, and a few
    with nodes that no label reaches."""
    for seed in (20240504, 20240507):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            g, labels, *_ = _bound_instance(rng)
            yield g, labels
    rng = np.random.default_rng(8)
    for n in (6, 15, 30):
        edges = random_connected_graph(rng, n, extra_edges=n // 2)
        cut = [(i + n, j + n, w) for i, j, w in random_connected_graph(rng, n // 2)]
        yield Graph.from_edges(n + n // 2, edges + cut), LabelSet(*random_labels(rng, n))


class TestDerivedFields:
    def test_partition_hops_match_breadth_first_search(self):
        unreachable = 0
        for g, labels in bound_instance_graphs():
            part = compute_neighborhoods(g, labels)
            hops, lost = loop_hops(g, labels)
            assert [h.tolist() for h in part.hops] == hops
            assert part.unreachable.tolist() == lost
            assert all(h.dtype == np.int64 for h in (*part.hops, part.unreachable))
            unreachable += len(lost)
        assert unreachable > 0

    def test_degrees_are_read_only_row_sums(self):
        for g, _ in bound_instance_graphs():
            assert g.node_count == g.indptr.size - 1
            assert g.degrees.tobytes() == loop_row_sums(g.indptr, g.weights).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                g.degrees[0] = 2 * g.degrees[0]

    def test_a_graph_holds_its_csr_arrays_and_nothing_else(self):
        # everything else is a function of these, cached or computed
        assert [f.name for f in dataclasses.fields(Graph)] == ["indptr", "indices", "weights"]

    def test_constructors_take_only_the_source_fields(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        copy = Graph(g.indptr, g.indices, g.weights)
        assert copy.node_count == 4 and copy.degrees.tolist() == [1.0, 2.0, 2.0, 1.0]
        with pytest.raises(TypeError):
            Graph(g.indptr, g.indices, g.weights, degrees=2 * g.degrees)
        part = NeighborhoodPartition(Graph.from_edges(4, [(0, 2, 1.0), (2, 1, 1.0)]),
                                     LabelSet([0], [1]))
        assert part.hop_of.tolist() == [0, 2, 1, -1]
        assert [h.tolist() for h in part.hops] == [[0], [2], [1]]
        assert part.unreachable.tolist() == [3]
        with pytest.raises(TypeError):
            NeighborhoodPartition(g, LabelSet([0], [1]), hop_of=np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError, match="read-only"):
            part.hop_of[0] = 1

    @pytest.mark.parametrize("graph", [
        Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]),
        Graph.from_edges(2, []),
        Graph.from_edges(1, []),
    ], ids=["two-components", "no-edges", "one-node"])
    def test_rcm_profile_needs_a_connected_graph_of_two_nodes(self, graph):
        with pytest.raises(ValueError, match="connected graph of two nodes or more"):
            graph.rcm_profile

