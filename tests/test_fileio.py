import json
import re

import numpy as np
import pytest

from priorprop import fileio
from priorprop.graph import Graph, GraphFormatError, LabelSet
from priorprop.multisource import ABSTAIN, LabelerAccuracy, WeakVoteMatrix
from priorprop.solver import solve_standard

from oracles import random_connected_graph


class TestGraphFiles:
    def test_round_trip_random_graphs(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(2, 15))
            g = Graph.from_edges(n, random_connected_graph(rng, n, extra_edges=4))
            path = tmp_path / f"g{trial}.txt"
            fileio.save_graph(g, path)
            g2 = fileio.load_graph(path)
            assert g2.node_count == g.node_count
            assert g2.edge_list() == g.edge_list()

    def test_round_trip_keeps_isolated_nodes(self, tmp_path):
        g = Graph.from_edges(5, [(0, 1, 1.0)])
        path = tmp_path / "g.txt"
        fileio.save_graph(g, path)
        assert fileio.load_graph(path).node_count == 5

    def test_rejects_self_loop(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0 1.0\n")
        with pytest.raises(GraphFormatError, match="self-loop"):
            fileio.load_graph(path)

    def test_rejects_conflicting_duplicates(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n1 0 2.0\n")
        with pytest.raises(GraphFormatError, match="conflicting"):
            fileio.load_graph(path)

    def test_rejects_negative_weight(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 -1.0\n")
        with pytest.raises(GraphFormatError):
            fileio.load_graph(path)

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="expected"):
            fileio.load_graph(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n0 1 1.5  # trailing\n\n")
        g = fileio.load_graph(path)
        assert g.edge_list() == [(0, 1, 1.5)]


class TestOtherFormats:
    def test_labels_round_trip(self, tmp_path):
        ls = LabelSet([4, 1, 9], [1, 0, 1])
        path = tmp_path / "l.txt"
        fileio.save_labels(ls, path)
        back = fileio.load_labels(path)
        assert back.indices.tolist() == ls.indices.tolist()
        assert back.values.tolist() == ls.values.tolist()

    def test_labels_reject_nonbinary(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0 3\n")
        with pytest.raises(ValueError):
            fileio.load_labels(path)

    def test_features_round_trip_and_delimiters(self, tmp_path):
        x = np.random.default_rng(1).normal(size=(6, 3))
        path = tmp_path / "f.txt"
        fileio.save_features(x, path)
        assert np.array_equal(fileio.load_features(path), x)
        comma = tmp_path / "f2.txt"
        comma.write_text("1.0,2.0\n3.0,4.0\n")
        assert fileio.load_features(comma).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_features_reject_ragged(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged"):
            fileio.load_features(path)

    def test_votes_round_trip(self, tmp_path):
        v = WeakVoteMatrix(np.array([[0, 1, ABSTAIN], [1, ABSTAIN, 0]], dtype=np.int8))
        path = tmp_path / "v.txt"
        fileio.save_votes(v, path)
        assert np.array_equal(fileio.load_votes(path).votes, v.votes)

    def test_votes_reject_bad_entry(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0 2\n")
        with pytest.raises(ValueError):
            fileio.load_votes(path)

    def test_accuracies_round_trip(self, tmp_path):
        acc = LabelerAccuracy([0.25, 0.75])
        path = tmp_path / "a.txt"
        fileio.save_accuracies(acc, path)
        assert np.array_equal(fileio.load_accuracies(path).p, acc.p)

    def test_prediction_round_trip(self, tmp_path):
        g = Graph.from_edges(3, [(0, 1, 1.0)])
        pred = solve_standard(g, LabelSet([0], [1]))
        path = tmp_path / "p.txt"
        fileio.save_prediction(pred, path)
        f, flags = fileio.load_prediction(path)
        assert np.array_equal(f, pred.f)
        assert flags == pred.flag_names()
        assert flags[2] == "unreachable"

    def test_prediction_rejects_duplicate_node(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 0.5 ok\n0 0.7 ok\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: duplicate node 0")):
            fileio.load_prediction(path)


class TestCanonicalJson:
    def test_float_precision_round_trips(self):
        vals = [0.1, 1.0 / 3.0, 2.4000000000000004, 1e-300, 123456.789]
        text = fileio.dumps_json({"vals": vals})
        back = json.loads(text)
        assert back["vals"] == vals

    def test_integral_floats_stay_floats(self):
        back = json.loads(fileio.dumps_json({"x": 1.0}))
        assert isinstance(back["x"], float)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fileio.dumps_json({"x": float("inf")})

    def test_deterministic_output(self):
        obj = {"b": [1, 2.5, None, True], "a": {"nested": "x"}}
        assert fileio.dumps_json(obj) == fileio.dumps_json(obj)

    def test_numpy_scalars_supported(self):
        text = fileio.dumps_json({"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)})
        assert json.loads(text) == {"i": 3, "f": 0.5, "b": True}
