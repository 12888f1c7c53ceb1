import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from priorprop import fileio
from priorprop.graph import Graph, GraphFormatError, LabelSet
from priorprop.multisource import ABSTAIN, LabelerAccuracy, WeakVoteMatrix
from priorprop.solver import FLAG_NAMES, Prediction, solve_standard

from oracles import (
    loop_load_accuracies,
    loop_load_features,
    loop_load_graph,
    loop_load_labels,
    loop_load_prediction,
    loop_load_votes,
    random_connected_graph,
    reference_dumps_json,
)

LOADERS = ("load_graph", "load_labels", "load_features", "load_votes", "load_accuracies",
           "load_prediction")


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

    def test_labels_repeated_index_names_the_file_and_the_index(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("3 1\n0 1\n7 0\n0 1\n7 0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: duplicate node 0$"):
            fileio.load_labels(path)

    def test_features_round_trip_and_delimiters(self, tmp_path):
        x = np.random.default_rng(1).normal(size=(6, 3))
        path = tmp_path / "f.txt"
        fileio.save_features(x, path)
        assert np.array_equal(fileio.load_features(path), x)
        comma = tmp_path / "f2.txt"
        comma.write_text("1.0,2.0\n3.0,4.0\n")
        assert fileio.load_features(comma).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_features_non_finite_value_names_the_line(self, tmp_path, bad):
        path = tmp_path / "f.txt"
        path.write_text(f"1 2\n3 {bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: expected 'x_1 ... x_d' "
                                                       "with finite values")):
            fileio.load_features(path)

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

    def test_prediction_bytes_match_per_node_formatting(self, tmp_path):
        rng = np.random.default_rng(4)
        special = [0.0, 1.0, 1 / 3, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 0.1]
        f = np.concatenate((special, rng.random(300), rng.random(20) * 1e-310))
        flags = rng.integers(0, 3, f.size).astype(np.int8)
        pred = Prediction(f=f, node_flags=flags, iterations=0, residual=0.0, route="dense")
        path = tmp_path / "p.txt"
        fileio.save_prediction(pred, path)
        want = "".join(
            f"{i} {format(float(v), '.17g')} {FLAG_NAMES[int(c)]}\n"
            for i, (v, c) in enumerate(zip(f, flags))
        )
        assert path.read_bytes() == want.encode()
        assert pred.flag_names() == [FLAG_NAMES[int(c)] for c in flags]

    def test_prediction_rejects_duplicate_node(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 0.5 ok\n0 0.7 ok\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: duplicate node 0")):
            fileio.load_prediction(path)


# Leaves of every type dumps_json writes: numpy scalars beside Python ones,
# text with control, non-ASCII and surrogate characters, and arrays of several
# dtypes, empty ones too. Containers are dicts with keys of several types,
# lists, tuples and arrays of arrays.
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(exclude_categories=()))
    | st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False))
    | st.builds(np.float32, st.floats(allow_nan=False, allow_infinity=False, width=32))
    | st.builds(np.int64, st.integers(-2**63, 2**63 - 1))
    | st.builds(np.uint8, st.integers(0, 255))
    | st.builds(np.bool_, st.booleans())
    | st.builds(np.array, st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5))
    | st.builds(lambda v: np.array(v, dtype=np.int8).reshape(-1, 1),
                st.lists(st.integers(-128, 127), max_size=4))
    | st.builds(lambda v: np.array(v, dtype=bool), st.lists(st.booleans(), max_size=4))
)
JSON_KEYS = st.text() | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none()


def json_values():
    return st.recursive(JSON_LEAVES, lambda inner: (
        st.lists(inner, max_size=4) | st.builds(tuple, st.lists(inner, max_size=4))
        | st.dictionaries(JSON_KEYS, inner, max_size=4)
    ), max_leaves=20)


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

    def test_number_leaf_follows_the_digit_rule(self):
        # the rule as first written: ".0" unless the digits hold ".", "e" or "E"
        def former(x):
            s = format(float(x), ".17g")
            return s if any(c in s for c in ".eE") else s + ".0"

        rng = np.random.default_rng(0)
        # random bit patterns: every sign, exponent and mantissa
        doubles = rng.integers(0, 2**64, 2000, dtype=np.uint64).view(np.float64)
        values = [0.0, -0.0, 1.0, -3.0, 1e15, 1e16, -1e16, 2.0**53, 1e22, 1e300, 1e-300,
                  5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310,
                  1.7976931348623157e308, *rng.integers(-10**6, 10**6, 200).astype(float),
                  *doubles[np.isfinite(doubles)]]
        for x in map(float, values):
            assert fileio._json_number(x) == former(x), x

    def test_deterministic_output(self):
        obj = {"b": [1, 2.5, None, True], "a": {"nested": "x"}}
        assert fileio.dumps_json(obj) == fileio.dumps_json(obj)

    def test_numpy_scalars_supported(self):
        text = fileio.dumps_json({"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)})
        assert json.loads(text) == {"i": 3, "f": 0.5, "b": True}

    @settings(max_examples=300)
    @given(json_values())
    @example({"\x00\t\x1f\"\\/": ["\u00e9\u2028\U0001f600\ud800", 2 ** 70, -0.0], 1.5: {}})
    def test_bytewise_equal_to_json_dumps_leaves(self, obj):
        assert fileio.dumps_json(obj) == reference_dumps_json(obj)

    @pytest.mark.parametrize("obj", [
        [1.0, float("nan")],
        {"a": {"b": np.float32("inf")}},
        (np.array([0.5, -np.inf]),),
        {3: [None, np.float64("-inf")]},
    ], ids=["nan", "float32-inf", "ndarray", "int-key"])
    def test_non_finite_raises_as_the_reference_does(self, obj):
        with pytest.raises(ValueError) as want:
            reference_dumps_json(obj)
        with pytest.raises(ValueError) as got:
            fileio.dumps_json(obj)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("leaf", [
        {1, 2}, object(), b"bytes", 1 + 2j, np.complex128(1.0), np.datetime64("2020-01-01"),
    ], ids=["set", "object", "bytes", "complex", "np-complex", "datetime64"])
    def test_unknown_type_raises_as_the_reference_does(self, leaf):
        obj = {"ok": [1, 2.5], "bad": [leaf]}
        with pytest.raises(TypeError) as want:
            reference_dumps_json(obj)
        with pytest.raises(TypeError) as got:
            fileio.dumps_json(obj)
        assert str(got.value) == str(want.value)


# Tables for the loader-vs-reference tests. A token is nearly always well
# formed for its column, else odd: junk over the number alphabet, a stray
# sign, a non-finite or fractional number. Junk has at most 4 characters, so
# an edge index or a node count stays below 10^4 and every graph stays small.
ODD = st.text(alphabet="0123456789+-.eE", min_size=1, max_size=4) | st.sampled_from(
    ["nan", "-inf", "inf", "NaN", "+Infinity", "x", "1.0", "1e1", "--1", "-1", "-0.5"])


def token(good):
    return st.integers(0, 24).flatmap(lambda k: ODD if k == 0 else good)


INDEX = token(st.integers(0, 9).map(str) | st.sampled_from(["+3", "007", "-0"]))
WEIGHT = token(st.floats(0, 1e6).map(repr) | st.sampled_from(["1e5", ".5", "5.", "1E-3", "+2"]))
FINITE = token(st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.sampled_from(["1e5", ".5", "5.", "-0.0", "1E-3", "+2", "-7"]))
FLOAT = token(st.floats().map(repr) | st.sampled_from(["NaN", "-inf", "+Infinity", ".5"]))
PROBABILITY = token(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr))
BIT = token(st.sampled_from(["0", "1", "+1", "00"]))
VOTE = token(st.sampled_from(["0", "1", "-1", "+1", "-0"]))
FLAG = st.integers(0, 24).flatmap(lambda k: st.sampled_from(
    ["okay", "OK", "nonconverged1", "0"] if k == 0 else ["ok", "unreachable", "nonconverged"]))
SPACES = st.sampled_from([" ", "\t", "  ", " \t "])
COMMAS = SPACES | st.sampled_from([",", ", ", " ,", ",,"])
OTHER_LINES = st.sampled_from(["", " ", "\t", "#", "# a note", "  # 1 2 3", "# nodes"])
HEADERS = st.builds("{}nodes{}{}".format, st.sampled_from(["# ", "#", "  #\t"]), SPACES,
                    token(st.integers(10, 12).map(str)) | st.sampled_from(["0", "-1", "+11", "3 4"]))


@st.composite
def tables(draw, columns, separators=SPACES, extra_lines=OTHER_LINES, ids=False):
    """Text of a table whose data lines hold one token per column strategy,
    now and then one token short or long, between blank and comment lines,
    with trailing comments, LF or CRLF line ends and an optional last line
    end. ``ids``: a first column that is mostly a permutation of the rows."""
    kinds = draw(st.lists(st.integers(0, 3), max_size=7))  # 0: not a data line
    perm = iter(draw(st.permutations(range(sum(k > 0 for k in kinds)))))
    lines = []
    for kind in kinds:
        if kind == 0:
            lines.append(draw(extra_lines))
            continue
        tokens = []
        if ids:  # mostly the row's own id, now and then any index
            own = st.just(str(next(perm)))
            tokens.append(draw(st.integers(0, 9).flatmap(lambda k: INDEX if k == 0 else own)))
        tokens += [draw(c) for c in columns]
        change = draw(st.integers(0, 19))
        if change == 0:
            tokens.pop()
        elif change == 1:
            tokens.append(tokens[-1])
        line = draw(st.sampled_from(["", " ", "\t"]))
        for k, tok in enumerate(tokens):
            line += (draw(separators) if k else "") + tok
        lines.append(line + draw(st.sampled_from(["", " ", " # note", "#x", " # nodes 11"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


@st.composite
def matrices(draw, value, separators):
    return draw(tables([value] * draw(st.integers(1, 3)), separators))


def _same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(load, path):
    try:
        return load(path), None
    except Exception as exc:  # the references also fail with OverflowError
        return None, exc


def _first_row_of_commas(text):
    """Line of the first data row when it holds only commas, else None."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        data = raw.split("#", 1)[0].strip()
        if data:
            return lineno if not data.replace(",", "").strip() else None
    return None


def _compare(tmp_path_factory, text, reference, load, same, narrowed_line=None):
    """Accepted by both: ``same`` results. Rejected by the reference: rejected,
    at the reference's ``path:line`` if it names one, and at some line if it
    failed on a token. ``narrowed_line``: a documented narrowing, rejected there."""
    path = tmp_path_factory.getbasetemp() / "table.txt"
    path.write_bytes(text.encode("utf-8"))
    want, want_exc = _outcome(reference, path)
    got, got_exc = _outcome(load, path)
    if narrowed_line is not None:
        assert str(got_exc).startswith(f"{path}:{narrowed_line}:"), got_exc
        return
    if want_exc is None:
        assert got_exc is None, f"{text!r}: {got_exc}"
        assert same(want, got), text
        return
    assert isinstance(got_exc, ValueError), f"{text!r}: accepted, reference says {want_exc}"
    named = re.match(rf"{re.escape(str(path))}:\d+:", str(want_exc))
    if named:
        assert str(got_exc).startswith(named[0]), f"{text!r}: {got_exc} vs {want_exc}"
    elif re.search("invalid literal|could not convert", str(want_exc)):
        assert re.match(rf"{re.escape(str(path))}:\d+:", str(got_exc)), got_exc


def _same_graph(a, b):
    return a.node_count == b.node_count and all(
        _same_array(getattr(a, k), getattr(b, k))
        for k in ("indptr", "indices", "weights", "degrees"))


class TestLoadersMatchLineReferences:
    """Every loader against the line-by-line reference it replaced."""

    @settings(max_examples=300)
    @given(tables([INDEX, INDEX, WEIGHT], extra_lines=OTHER_LINES | HEADERS))
    def test_graph(self, tmp_path_factory, text):
        _compare(tmp_path_factory, text, loop_load_graph, fileio.load_graph, _same_graph)

    @settings(max_examples=200)
    @given(tables([BIT], ids=True) | tables([INDEX, BIT]))
    def test_labels(self, tmp_path_factory, text):
        _compare(tmp_path_factory, text, loop_load_labels, fileio.load_labels,
                 lambda a, b: _same_array(a.indices, b.indices)
                 and _same_array(a.values, b.values))

    @settings(max_examples=300)
    @given(matrices(FINITE, COMMAS))
    def test_features(self, tmp_path_factory, text):
        _compare(tmp_path_factory, text, loop_load_features, fileio.load_features,
                 _same_array, _first_row_of_commas(text))

    @settings(max_examples=300)
    @given(matrices(VOTE, COMMAS))
    def test_votes(self, tmp_path_factory, text):
        _compare(tmp_path_factory, text, loop_load_votes, fileio.load_votes,
                 lambda a, b: _same_array(a.votes, b.votes), _first_row_of_commas(text))

    @settings(max_examples=200)
    @given(tables([PROBABILITY], ids=True))
    def test_accuracies(self, tmp_path_factory, text):
        _compare(tmp_path_factory, text, loop_load_accuracies, fileio.load_accuracies,
                 lambda a, b: _same_array(a.p, b.p))

    @settings(max_examples=200)
    @given(tables([FLOAT, FLAG], ids=True))
    def test_prediction(self, tmp_path_factory, text):
        _compare(tmp_path_factory, text, loop_load_prediction, fileio.load_prediction,
                 lambda a, b: _same_array(a[0], b[0]) and a[1] == b[1])


class TestTokenErrorsNameTheLine:
    @pytest.mark.parametrize("loader, text, line", [
        ("load_features", "1.0 2.0\n1.0 abc\n", 2),
        ("load_labels", "# truth\n0 x\n", 2),
        ("load_votes", "0 1 -1\n1 yes 0\n", 2),
        ("load_accuracies", "0 0.8\n1 high\n", 2),
        ("load_graph", "# nodes x\n0 1 1.0\n", 1),
        ("load_graph", "0 1 1.0\n0 2 w\n", 2),
        ("load_prediction", "0 0.5 ok\n1 half ok\n", 2),
    ], ids=["feature", "label", "vote", "accuracy", "node-header", "weight", "score"])
    def test_non_numeric_token(self, tmp_path, loader, text, line):
        path = tmp_path / "t.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: expected")):
            getattr(fileio, loader)(path)

    @pytest.mark.parametrize("loader, row", [
        ("load_labels", "{c} 1"), ("load_labels", "1{c} 0"), ("load_votes", "0 {c}"),
        ("load_graph", "0 {c} 1.0"), ("load_prediction", "{c} 0.5 ok"),
    ])
    def test_non_ascii_character_in_a_field(self, tmp_path, loader, row):
        # numpy's integer parser can crash on code points above 0xFFFF, so such
        # fields are rejected before it runs; non-ASCII comments stay allowed
        path = tmp_path / "t.txt"
        for cp in range(0xE0000, 0x110000, 0x3FFF):
            path.write_text(f"# caf\u00e9 \U0001f600\n{row.format(c=chr(cp))}\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}:2: expected")):
                getattr(fileio, loader)(path)

    def test_first_bad_line_wins_across_rules(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0 1\n1 5\n2 x\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
            fileio.load_labels(path)


class TestNarrowings:
    """Files the line-by-line references accept and the loaders reject."""

    def _rejected(self, tmp_path, text, reference, loader, line):
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        reference(path)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}:")):
            loader(path)

    @pytest.mark.parametrize("text", ["0 1 1_0\n", "1_0 2 1.0\n", "# nodes 1_0\n0 1 1.0\n"])
    def test_underscore_in_number(self, tmp_path, text):
        self._rejected(tmp_path, text, loop_load_graph, fileio.load_graph, 1)

    @pytest.mark.parametrize("text", ["\u0661 1\n", "0 \u0661\n"])
    def test_non_ascii_digit(self, tmp_path, text):
        self._rejected(tmp_path, text, loop_load_labels, fileio.load_labels, 1)

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_other_line_break(self, tmp_path, sep):
        self._rejected(tmp_path, f"0 1 1.0\n1 2 1.0{sep}2 3 1.0\n", loop_load_graph,
                       fileio.load_graph, 2)

    def test_first_row_of_commas(self, tmp_path):
        # the references read such a row as one of no values
        self._rejected(tmp_path, ",\n, ,\n", loop_load_features, fileio.load_features, 1)
        path = tmp_path / "v.txt"
        path.write_text(" ,, # none\n1 0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ragged row")):
            loop_load_votes(path)
        with pytest.raises(ValueError, match=re.escape(f"{path}:1:")):
            fileio.load_votes(path)


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comment-only"])
@pytest.mark.parametrize("loader", LOADERS)
def test_empty_input_does_not_warn(tmp_path, loader, text):
    path = tmp_path / "t.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            getattr(fileio, loader)(path)
        except ValueError as exc:  # an empty graph, features, votes or accuracies
            assert str(exc).startswith(f"{path}: ")
