import re
import warnings
from operator import attrgetter

import numpy as np
import pytest

from megagcl import graphdata as gd
from megagcl.errors import ConfigError, DataError

from conftest import (count_calls, star_record, synthetic_dataset,
                      two_triangles, write_tu_fixture)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_mutag_counts(mutag):
    assert len(mutag) == 188
    assert mutag.n_classes == 2
    assert sum(r.n_nodes for r in mutag.records) == 3371
    distinct_node_labels = {l for r in mutag.records for l in r.node_labels}
    assert len(distinct_node_labels) == 7


def test_two_triangle_fixture(tmp_path):
    folder = two_triangles(tmp_path, labels=(1, 2))
    ds = gd.parse_tu_dataset(folder, "TRI")
    assert len(ds) == 2
    assert ds.n_classes == 2
    assert [r.label for r in ds.records] == [0, 1]
    for rec in ds.records:
        assert rec.n_nodes == 3
        assert len(rec.topology.edges) == 6  # both directions of 3 edges


def test_label_remap_preserves_sorted_order(tmp_path):
    folder = two_triangles(tmp_path, name="TRI2", labels=(9, -3))
    ds = gd.parse_tu_dataset(folder, "TRI2")
    # raw -3 < 9, so -3 -> 0 and 9 -> 1
    assert [r.label for r in ds.records] == [1, 0]


@pytest.mark.parametrize(
    "a_lines,indicator,node_labels,want_labels,local_pairs", [
        # nodes 1 and 3 form graph 1, node 2 is graph 2
        pytest.param(["1, 3"], [1, 2, 1], [7, 8, 7], [[7, 7], [8]],
                     [[(0, 1)], []], id="one-edge"),
        # graph 1 is nodes 1, 3 and 5, graph 2 nodes 2 and 4; the lines
        # alternate between the graphs and name nodes out of order
        pytest.param(["5, 3", "4, 2", "1, 3", "2, 4", "5, 1"],
                     [1, 2, 1, 2, 1], [1, 2, 3, 4, 5], [[1, 3, 5], [2, 4]],
                     [[(2, 1), (0, 1), (2, 0)], [(1, 0), (0, 1)]],
                     id="interleaved"),
    ])
def test_unsorted_indicator_keeps_node_labels_with_their_nodes(
        tmp_path, a_lines, indicator, node_labels, want_labels, local_pairs):
    folder = write_tu_fixture(tmp_path, "UNS", a_lines=a_lines,
                              indicator=indicator, graph_labels=[1, 2],
                              node_labels=node_labels)
    ds = gd.parse_tu_dataset(folder, "UNS")
    assert [r.node_labels for r in ds.records] == want_labels
    assert [r.n_nodes for r in ds.records] == [len(l) for l in want_labels]
    for rec, pairs in zip(ds.records, local_pairs):
        want = gd.undirected_closure(pairs, rec.n_nodes)
        assert rec.topology.edges.dtype == want.dtype
        np.testing.assert_array_equal(rec.topology.edges, want)


def test_cross_graph_edge_rejected(tmp_path):
    folder = write_tu_fixture(tmp_path, "BAD",
                              a_lines=["1, 2", "2, 1", "1, 4"],
                              indicator=[1, 1, 1, 2],
                              graph_labels=[1, 2])
    with pytest.raises(DataError) as exc:
        gd.parse_tu_dataset(folder, "BAD")
    assert "crosses graphs" in str(exc.value)


def test_missing_mandatory_file(tmp_path):
    folder = write_tu_fixture(tmp_path, "PART", ["1, 2", "2, 1"], [1, 1], [1])
    (folder / "PART_graph_labels.txt").unlink()
    with pytest.raises(DataError) as exc:
        gd.parse_tu_dataset(folder, "PART")
    assert "PART_graph_labels.txt" in str(exc.value)


def test_folder_without_graphs_is_rejected(tmp_path):
    folder = write_tu_fixture(tmp_path, "NONE", [], [], [], node_labels=[])
    with pytest.raises(DataError, match="NONE_graph_indicator.txt: .*no graphs"):
        gd.parse_tu_dataset(folder, "NONE")


_EXPECTED = "expected {} comma-separated integers that fit int64: {!r}"


@pytest.mark.parametrize("line", [
    pytest.param("2, x", id="non-numeric"),
    pytest.param("2, 1, 3", id="three-fields")])
def test_non_numeric_line_names_file_and_line(tmp_path, line):
    folder = write_tu_fixture(tmp_path, "NUM",
                              a_lines=["1, 2", line],
                              indicator=[1, 1],
                              graph_labels=[1])
    with pytest.raises(DataError) as exc:
        gd.parse_tu_dataset(folder, "NUM")
    assert str(exc.value) == "NUM_A.txt:2: " + _EXPECTED.format(2, line)


@pytest.mark.parametrize("column,value", [
    ("node_labels", "0.5"), ("indicator", "1.9"), ("graph_labels", "2.7"),
    ("graph_labels", "nan"), ("node_labels", "inf")])
def test_non_integral_value_names_file_and_line(tmp_path, column, value):
    cols = dict(indicator=["1", "1", "2"], graph_labels=["0", "1"],
                node_labels=["0", "1", "0"])
    cols[column][1] = value
    folder = write_tu_fixture(tmp_path, "FRAC", ["1, 2", "2, 1"], **cols)
    name = "graph_indicator" if column == "indicator" else column
    with pytest.raises(DataError) as exc:
        gd.parse_tu_dataset(folder, "FRAC")
    assert str(exc.value) == f"FRAC_{name}.txt:2: " + _EXPECTED.format(1, value)


def test_integral_floats_refused_and_negative_labels_accepted(tmp_path):
    cols = dict(indicator=["1", "1", "2"], graph_labels=["-1", "1"],
                node_labels=["0", "2", "-1"])
    folder = write_tu_fixture(tmp_path, "INT", ["1, 2", "2, 1"], **cols)
    ds = gd.parse_tu_dataset(folder, "INT")
    assert [r.n_nodes for r in ds.records] == [2, 1]
    assert [r.label for r in ds.records] == [0, 1]
    assert [r.node_labels for r in ds.records] == [[0, 2], [-1]]
    for column, name in [("indicator", "graph_indicator"),
                         ("graph_labels", "graph_labels"),
                         ("node_labels", "node_labels")]:
        floats = dict(cols)
        floats[column] = cols[column][:-1] + [cols[column][-1] + ".0"]
        folder = write_tu_fixture(tmp_path / column, "INT", ["1, 2", "2, 1"],
                                  **floats)
        with pytest.raises(DataError) as exc:
            gd.parse_tu_dataset(folder, "INT")
        assert str(exc.value) == f"INT_{name}.txt:{len(cols[column])}: " \
            + _EXPECTED.format(1, floats[column][-1])


@pytest.mark.parametrize("kind", ["node_attributes", "edge_labels"])
def test_unread_optional_files_warn(tmp_path, kind):
    folder = two_triangles(tmp_path)
    (folder / f"TRI_{kind}.txt").write_text("0.5\n")
    with pytest.warns(UserWarning, match=kind.replace("_", " ")):
        gd.parse_tu_dataset(folder, "TRI")


def test_node_index_exceeding_indicator(tmp_path):
    folder = write_tu_fixture(tmp_path, "OOB",
                              a_lines=["1, 2", "2, 1", "1, 9"],
                              indicator=[1, 1],
                              graph_labels=[1])
    with pytest.raises(DataError) as exc:
        gd.parse_tu_dataset(folder, "OOB")
    assert "exceeds indicator length" in str(exc.value)
    # an index too large for int64 is refused as the file's first bad line
    folder = write_tu_fixture(tmp_path / "big", "OOB",
                              a_lines=["1, 2", "1, 99999999999999999999"],
                              indicator=[1, 1],
                              graph_labels=[1])
    with pytest.raises(DataError) as exc:
        gd.parse_tu_dataset(folder, "OOB")
    assert str(exc.value) == "OOB_A.txt:2: " + _EXPECTED.format(
        2, "1, 99999999999999999999")


def test_undirected_closure_added_and_idempotent(tmp_path):
    folder = write_tu_fixture(tmp_path, "HALF",
                              a_lines=["1, 2", "2, 3"],  # reverses missing
                              indicator=[1, 1, 1],
                              graph_labels=[1])
    ds = gd.parse_tu_dataset(folder, "HALF")
    edges = ds.records[0].topology.edges
    assert set(map(tuple, edges.tolist())) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    again = gd.undirected_closure(edges, 3)
    assert np.array_equal(again, edges)


def _closure_reference(edges):
    """Pair-at-a-time closure: the distinct non-self pairs and their
    reverses, in CSR order (by target, then source)."""
    seen = dict.fromkeys((u, v) for u, v in edges if u != v)
    for u, v in list(seen):
        seen.setdefault((v, u))
    return sorted((list(pair) for pair in seen), key=lambda e: (e[1], e[0]))


def test_undirected_closure_matches_pairwise_reference():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 30)), 2)).tolist()
        got = gd.undirected_closure(edges, n)
        assert got.dtype == np.intp and got.shape[1] == 2
        assert got.tolist() == _closure_reference(edges)


def test_undirected_closure_names_first_edge_out_of_range():
    # a self-loop is checked too, as a TU file's line is
    with pytest.raises(DataError, match=r"^edge 1 \(4, 4\) is outside node "
                       r"range 0\.\.2$"):
        gd.undirected_closure([(0, 1), (4, 4), (2, 5), (-1, 0)], 3)
    with pytest.raises(DataError, match=r"^edge 2 \(2, 5\) is outside"):
        gd.undirected_closure([(0, 1), (1, 1), (2, 5), (-1, 0)], 3)


@pytest.mark.parametrize("pairs, shape, dtype", [
    ([(0, 1, 2), (3, 4, 5)], (2, 3), "int64"),  # would re-pair as 3 rows
    ([(0, 1, 2)], (1, 3), "int64"),
    ([(0.5, 1.7)], (1, 2), "float64"),          # would truncate to (0, 1)
    ([(0, 1), (2,)], (2,), "object"),           # rows of different lengths
    ((0, 1), (2,), "int64"),                    # one pair, not a list of them
    ([(True, False)], (1, 2), "bool"),
    ([[]], (1, 0), "float64"),
])
@pytest.mark.parametrize("entry", ["topology", "closure"])
def test_edges_that_are_not_an_e_by_2_integer_array_are_refused(
        pairs, shape, dtype, entry):
    message = re.escape(f"edges must be an (E, 2) integer array, got shape "
                        f"{shape} of dtype {dtype}")
    with pytest.raises(DataError, match=f"^{message}$"):
        if entry == "topology":
            gd.GraphTopology(6, pairs)
        else:
            gd.undirected_closure(pairs, 6)


@pytest.mark.parametrize("pairs", [(), [], np.empty((0, 2), dtype=np.int32),
                                   np.array([[0, 1]], dtype=np.uint8)])
def test_empty_sequences_and_integer_arrays_are_edges(pairs):
    edges = gd.GraphTopology(2, pairs).edges
    assert edges.dtype == np.intp and edges.shape == (len(pairs), 2)
    np.testing.assert_array_equal(edges, np.reshape(pairs, (-1, 2)))
    assert gd.undirected_closure(pairs, 2).dtype == np.intp


def test_a_topology_keeps_its_own_read_only_edges(mutag):
    e = np.array([[0, 1]])
    t = gd.GraphTopology(3, e)
    t.csr_edges
    e[0] = [1, 2]  # the caller's array no longer reaches the graph
    np.testing.assert_array_equal(t.edges, [[0, 1]])
    np.testing.assert_array_equal(t.csr_edges, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="read-only"):
        t.edges[0] = [1, 2]
    frozen = np.array([[0, 1]])
    frozen.flags.writeable = False
    assert gd.GraphTopology(3, frozen).edges is frozen
    view = e.view()  # read-only, but its array is not
    view.flags.writeable = False
    t = gd.GraphTopology(3, view)
    e[0] = [0, 2]
    np.testing.assert_array_equal(t.edges, [[1, 2]])
    # parsed graphs take uncopied read-only views of one closure array
    assert len({id(r.topology.edges.base) for r in mutag.records}) == 1
    assert not any(r.topology.edges.flags.writeable for r in mutag.records)


@pytest.mark.parametrize("n_nodes", ["3", 2.0, True, -1, None])
def test_a_node_count_that_is_not_an_int_of_at_least_0_is_refused(n_nodes):
    message = f"n_nodes must be an int of at least 0, got {n_nodes!r}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        gd.GraphTopology(n_nodes, [(0, 1)])


@pytest.mark.parametrize("n_nodes", [np.int64(3), np.uint8(3), np.intp(3)])
def test_a_numpy_node_count_is_stored_as_an_int(n_nodes):
    t = gd.GraphTopology(n_nodes, [(0, 1)])
    assert type(t.n_nodes) is int and t.n_nodes == 3
    np.testing.assert_array_equal(gd.degree_sequence(t), [1, 1, 0])


def test_crlf_and_spacing_tolerated(tmp_path):
    folder = tmp_path / "crlf"
    folder.mkdir()
    (folder / "W_A.txt").write_text("1 ,2\r\n2, 1\r\n")
    (folder / "W_graph_indicator.txt").write_text("1\r\n1\r\n")
    (folder / "W_graph_labels.txt").write_text("3\r\n")
    ds = gd.parse_tu_dataset(folder, "W")
    assert len(ds) == 1 and ds.records[0].n_nodes == 2


def _assert_same_parse(got, want):
    assert (got.name, got.n_classes, len(got)) == \
        (want.name, want.n_classes, len(want))
    for a, b in zip(got.records, want.records):
        assert (a.n_nodes, a.label, a.node_labels) == \
            (b.n_nodes, b.label, b.node_labels)
        assert all(type(x) is int for x in a.node_labels or ())
        assert np.array_equal(a.topology.edges, b.topology.edges)
        assert a.topology.edges.dtype == np.intp


# Each case replaces some of the files of a 12-node, two-graph dataset:
# nodes 1-10 are graph 1 and nodes 11-12 graph 2. Its outcome is the
# DataError message it raises, which starts with the file's name, or the
# lines of a plain A file that it parses the same as.
_BASE = {"A": "1, 2\n2, 3\n10, 1\n11, 12\n",
         "graph_indicator": "1\n" * 10 + "2\n2\n",
         "graph_labels": "4\n-2\n",
         "node_labels": "0\n1\n" * 6}


def _refused(file, line, text, width=2):
    return f"T_{file}.txt:{line}: " + _EXPECTED.format(width, text)


_CRAFTED = {
    "plain": ({}, _BASE["A"]),
    "crlf": ({k: v.replace("\n", "\r\n") for k, v in _BASE.items()},
             _BASE["A"]),
    "spaces-and-tabs": ({"A": "1 ,2\n 2\t,\t3 \n10 , 1\t\n11,12\n"},
                        _BASE["A"]),
    "blank-lines": ({"A": "\n1, 2\n\n\n2, 3\n10, 1\n\n11, 12\n\n",
                     "graph_indicator": "1\n" * 10 + "\n2\n\n2\n"},
                    _BASE["A"]),
    "whitespace-only-line": ({"A": "1, 2\n  \n2, 3\n"},
                             _refused("A", 2, "")),
    "space-only-pair": ({"A": "1, 2\n2 3\n11 12\n"},
                        _refused("A", 2, "2 3")),
    "plus-sign": ({"A": "+1, 2\n2, +3\n"}, "1, 2\n2, 3\n"),
    "no-break-spaces": ({"A": "1\u00a0, 2\n\u00a011,\u00a012\n"},
                        "1, 2\n11, 12\n"),
    "underscore": ({"A": "1_0, 2\n11, 12\n"}, _refused("A", 1, "1_0, 2")),
    "trailing-comma": ({"A": "1, 2,\n11, 12\n"}, _refused("A", 1, "1, 2,")),
    "integral-float": ({"graph_indicator": "1.0\n" + "1\n" * 9 + "2\n2.0\n"},
                       _refused("graph_indicator", 1, "1.0", 1)),
    "no-trailing-newline": ({"A": "1, 2\n11, 12"}, "1, 2\n11, 12\n"),
    "single-edge": ({"A": "3, 4\n"}, "3, 4\n"),
    "oversized-index": ({"A": "1, 2\n99999999999999999999, 1\n"},
                        _refused("A", 2, "99999999999999999999, 1")),
    "out-of-range-after-blanks": (
        {"A": "1, 2\n\n\n13, 1\n"},
        "T_A.txt:4: node index exceeds indicator length (12 nodes): '13, 1'"),
    "zero-index": (
        {"A": "1, 2\n0, 1\n"},
        "T_A.txt:2: node index exceeds indicator length (12 nodes): '0, 1'"),
    "cross-graph-after-blank": ({"A": "1, 2\n\n2, 3\n\n1, 11\n"},
                                "T_A.txt:5: edge (1, 11) crosses graphs 1 "
                                "and 2"),
    "three-fields": ({"A": "1, 2\n1, 2, 3\n"}, _refused("A", 2, "1, 2, 3")),
    "one-field": ({"A": "1, 2\n\n7\n"}, _refused("A", 3, "7")),
    "non-numeric": ({"A": "1, 2\n1, x\n"}, _refused("A", 2, "1, x")),
    "empty-edge-file": ({"A": ""}, ""),
    "non-integral-label": ({"graph_labels": "4\n0.5\n"},
                           _refused("graph_labels", 2, "0.5", 1)),
    "oversized-label": ({"graph_labels": "4\n99999999999999999999\n"},
                        _refused("graph_labels", 2, "99999999999999999999",
                                 1)),
    "label-count": ({"graph_labels": "4\n"},
                    "T_graph_labels.txt: 1 labels for 2 graphs"),
    "indicator-gap": ({"graph_indicator": "1\n" * 10 + "3\n3\n"},
                      "T_graph_indicator.txt: graph ids are not 1..N"),
    "empty-indicator": ({"graph_indicator": ""},
                        "T_graph_indicator.txt: the dataset holds no graphs"),
    "node-label-pair": ({"node_labels": "0, 1\n" * 12},
                        _refused("node_labels", 1, "0, 1", 1)),
}


def _write_crafted(folder, files):
    folder.mkdir(exist_ok=True)
    for suffix, text in {**_BASE, **files}.items():
        with (folder / f"T_{suffix}.txt").open("w", newline="") as f:
            f.write(text)
    return folder


@pytest.mark.parametrize("case", sorted(_CRAFTED))
def test_crafted_files_parse_or_name_their_first_bad_line(tmp_path, case):
    files, outcome = _CRAFTED[case]
    folder = _write_crafted(tmp_path / "case", files)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if outcome.startswith("T_"):
            with pytest.raises(DataError) as exc:
                gd.parse_tu_dataset(folder, "T")
            assert str(exc.value) == outcome
            return
        got = gd.parse_tu_dataset(folder, "T")
    plain = _write_crafted(tmp_path / "plain", {"A": outcome})
    _assert_same_parse(got, gd.parse_tu_dataset(plain, "T"))


@pytest.mark.parametrize("case,message", [
    ("out-of-range-after-blanks",
     "T_A.txt:4: node index exceeds indicator length (12 nodes): '13, 1'"),
    ("cross-graph-after-blank",
     "T_A.txt:5: edge (1, 11) crosses graphs 1 and 2")])
def test_c_reader_errors_name_the_line_past_blank_lines(tmp_path, case,
                                                        message):
    _write_crafted(tmp_path, _CRAFTED[case][0])
    with pytest.raises(DataError) as exc:
        gd.parse_tu_dataset(tmp_path, "T")
    assert str(exc.value) == message


@pytest.mark.parametrize("file", ["A", "graph_indicator"])
@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_file_raises_data_error_naming_it(tmp_path, file, kind):
    folder = _write_crafted(tmp_path, {})
    path = folder / f"T_{file}.txt"
    if kind == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe1, 2\n")
    with pytest.raises(DataError, match=f"^T_{file}.txt: cannot be read: "):
        gd.parse_tu_dataset(folder, "T")


@pytest.mark.parametrize("a_text", ["", "\n", "\n\n"])
def test_edge_free_dataset_leaks_no_warning(tmp_path, a_text):
    folder = write_tu_fixture(tmp_path, "DOT", [], indicator=[1, 2, 3],
                              graph_labels=[0, 1, 0])
    (folder / "DOT_A.txt").write_text(a_text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = gd.parse_tu_dataset(folder, "DOT")
    assert caught == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(gd.parse_tu_dataset(folder, "DOT")) == 3
    assert [r.n_nodes for r in ds.records] == [1, 1, 1]
    assert all(r.topology.edges.shape == (0, 2) for r in ds.records)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_degree_onehot_on_triangle(tmp_path):
    ds = gd.parse_tu_dataset(two_triangles(tmp_path), "TRI")
    ds = gd.build_node_features(ds, "degree-onehot", cap=4)
    for rec in ds.records:
        assert rec.features.shape == (3, 5)
        np.testing.assert_array_equal(rec.features[:, 2], np.ones(3))
        assert rec.features.sum() == 3


def test_degree_onehot_isolated_node():
    topo = gd.GraphTopology(1, ())
    ds = gd.Dataset("ONE", [gd.GraphRecord(topo, 0)], 1)
    ds = gd.build_node_features(ds, "degree-onehot", cap=3)
    np.testing.assert_array_equal(ds.records[0].features, [[1.0, 0, 0, 0]])


def test_degree_onehot_caps_large_degrees():
    rec = gd.GraphRecord(gd.GraphTopology(
        5, gd.undirected_closure([(0, i) for i in range(1, 5)], 5)), 0)
    ds = gd.build_node_features(gd.Dataset("S", [rec], 1), "degree-onehot", cap=2)
    assert ds.records[0].features[0, 2] == 1.0  # center degree 4 -> cap 2


def test_node_label_onehot_width_on_mutag(mutag):
    ds = gd.build_node_features(mutag, "node-label-onehot")
    assert ds.feature_width == 7
    for rec in ds.records[:5]:
        np.testing.assert_array_equal(rec.features.sum(axis=1),
                                      np.ones(rec.n_nodes))


@pytest.mark.parametrize("cap", [2.5, True, 0, "3"])
def test_degree_onehot_rejects_a_cap_that_is_not_an_int_of_at_least_1(cap):
    ds = gd.Dataset("S", [star_record(4, 0)], 1)
    with pytest.raises(ConfigError, match="cap"):
        gd.build_node_features(ds, "degree-onehot", cap=cap)


def test_feature_scheme_mismatch():
    topo = gd.GraphTopology(1, ())
    ds = gd.Dataset("X", [gd.GraphRecord(topo, 0)], 1)  # no node labels
    assert gd.Dataset("E", [], 0).feature_width is None  # no records
    with pytest.raises(DataError):
        gd.build_node_features(ds, "node-label-onehot")
    with pytest.raises(ConfigError):
        gd.build_node_features(ds, "degree-onehot", cap=0)
    with pytest.raises(ConfigError):
        gd.build_node_features(ds, "laplacian")


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def _featured_triangles(tmp_path):
    ds = gd.parse_tu_dataset(two_triangles(tmp_path), "TRI")
    return gd.build_node_features(ds, "degree-onehot", cap=4)


def test_single_graph_batch(tmp_path):
    ds = _featured_triangles(tmp_path)
    batch = gd.batch_graphs(ds.records[:1])
    assert batch.n_edges == 6  # 6 directed edges, no self loops
    # CSR order: by target, then source
    np.testing.assert_array_equal(batch.adjacency.src, [1, 2, 0, 2, 0, 1])
    np.testing.assert_array_equal(batch.adjacency.dst, [0, 0, 1, 1, 2, 2])


def test_offsets_shift_second_graph(tmp_path):
    ds = _featured_triangles(tmp_path)
    rec2 = gd.GraphRecord(gd.GraphTopology(
        2, gd.undirected_closure([(0, 1)], 2)), 0,
        features=np.ones((2, 5)))
    batch = gd.batch_graphs([ds.records[0], rec2])
    # second graph's nodes 0 and 1 appear as global nodes 3 and 4
    np.testing.assert_array_equal(batch.adjacency.src[6:], [4, 3])
    np.testing.assert_array_equal(batch.adjacency.dst[6:], [3, 4])
    np.testing.assert_array_equal(batch.pooling.dst, [0, 0, 0, 1, 1])


def test_batch_of_single_node_graphs():
    recs = [gd.GraphRecord(gd.GraphTopology(1, ()), 0,
                           features=np.ones((1, 2))) for _ in range(4)]
    batch = gd.batch_graphs(recs)
    assert batch.n_nodes == 4
    assert batch.n_edges == 0
    assert batch.adjacency.src.shape == batch.adjacency.dst.shape == (0,)


def test_batch_block_diagonality(tmp_path):
    ds = synthetic_dataset(n_per_class=6, seed=3)
    batch = gd.batch_graphs(ds.records)
    graph_of_node = batch.pooling.dst
    assert np.array_equal(graph_of_node[batch.adjacency.src],
                          graph_of_node[batch.adjacency.dst])


def test_batch_feature_width_mismatch():
    a = gd.GraphRecord(gd.GraphTopology(1, ()), 0, features=np.ones((1, 2)))
    b = gd.GraphRecord(gd.GraphTopology(1, ()), 0, features=np.ones((1, 3)))
    with pytest.raises(DataError):
        gd.batch_graphs([a, b])
    with pytest.raises(DataError):
        gd.batch_graphs([])


def test_batch_rejects_feature_rows_unequal_to_node_count():
    good = gd.GraphRecord(gd.GraphTopology(1, ()), 0, features=np.ones((1, 2)))
    extra = gd.GraphRecord(gd.GraphTopology(3, gd.undirected_closure(
        [(0, 1), (1, 2)], 3)), 0, features=np.ones((4, 2)))
    short = gd.GraphRecord(gd.GraphTopology(2, ((0, 1), (1, 0))), 0,
                           features=np.ones((1, 2)))
    with pytest.raises(DataError, match="record 1 .* 3 nodes but 4 feature"):
        gd.batch_graphs([good, extra, short])
    with pytest.raises(DataError, match="record 2 .* 2 nodes but 1 feature"):
        gd.batch_graphs([good, good, short, extra])


@pytest.mark.parametrize("edges, message", [
    (((0, 1), (1, 0), (0, 3)), r"edge 2 \(0, 3\) is outside node range 0\.\.1"),
    (((0, 1), (1, 0), (-1, 0)), r"edge 2 \(-1, 0\) is outside node range"),
])
def test_topology_rejects_bad_edges_where_its_order_is_first_computed(
        edges, message):
    topo = gd.GraphTopology(2, edges)  # construction does not check
    rec = gd.GraphRecord(topo, 0, features=np.ones((2, 1)))
    after = gd.GraphRecord(gd.GraphTopology(2, ((0, 1), (1, 0))), 0,
                           features=np.ones((2, 1)))
    with pytest.raises(DataError, match=message):
        gd.batch_graphs([rec, after])
    with pytest.raises(DataError, match=message):
        topo.csr_edges


def test_csr_edges_are_the_edges_in_lexsort_order_and_read_only(mutag):
    shuffled = np.random.default_rng(4).permutation(
        mutag.records[0].topology.edges)
    for topo in [r.topology for r in mutag.records[:20]] + [
            gd.GraphTopology(5, shuffled[:0]), gd.GraphTopology(0, ()),
            gd.GraphTopology(mutag.records[0].n_nodes, shuffled),
            gd.GraphTopology(3, ((2, 0), (1, 0), (2, 0), (0, 1), (1, 1)))]:
        # the closure, lexsorted by (target, source)
        want = np.array(_closure_reference(topo.edges.tolist()),
                        dtype=np.intp).reshape(-1, 2)
        assert topo.csr_edges.dtype == np.intp
        np.testing.assert_array_equal(topo.csr_edges, want)
        assert not topo.csr_edges.flags.writeable
        with pytest.raises(ValueError):
            topo.csr_edges[:1] = 0


def test_hand_built_topologies_batch_like_their_tu_files(tmp_path):
    # two graphs of 4 and 3 nodes; their pairs hold a duplicate, self-loops
    # and one-way pairs, and are shuffled
    graphs = [[(0, 1), (1, 0), (2, 1), (0, 1), (3, 3), (2, 3), (0, 2)],
              [(2, 0), (1, 1), (1, 2), (2, 1)]]
    rng = np.random.default_rng(7)
    graphs = [[pairs[i] for i in rng.permutation(len(pairs))]
              for pairs in graphs]
    sizes, node_labels = [4, 3], [[0, 1, 2, 0], [1, 1, 0]]
    a_lines = [f"{u + 1 + off}, {v + 1 + off}"
               for pairs, off in zip(graphs, (0, 4)) for u, v in pairs]
    folder = write_tu_fixture(tmp_path, "HAND", a_lines,
                              indicator=[1] * 4 + [2] * 3,
                              graph_labels=[0, 1],
                              node_labels=node_labels[0] + node_labels[1])
    parsed = gd.parse_tu_dataset(folder, "HAND")
    hand = gd.Dataset("HAND", [
        gd.GraphRecord(gd.GraphTopology(n, pairs), label, labels)
        for n, pairs, label, labels in zip(sizes, graphs, (0, 1), node_labels)
    ], 2)
    for scheme, cap in (("node-label-onehot", None), ("degree-onehot", 2)):
        got, want = (gd.batch_graphs(gd.build_node_features(
            ds, scheme, cap).records) for ds in (hand, parsed))
        for name in ("pooling.dst", "adjacency.src", "adjacency.dst",
                     "features"):
            a, b = map(attrgetter(name), (got, want))
            assert (a.dtype, a.shape, a.tobytes()) == \
                (b.dtype, b.shape, b.tobytes()), name
    for h, p in zip(hand.records, parsed.records):
        assert h.topology.csr_edges.tobytes() == p.topology.csr_edges.tobytes()
        np.testing.assert_array_equal(gd.degree_sequence(h.topology),
                                      gd.degree_sequence(p.topology))


def _check_batch_orders(records):
    batch = gd.batch_graphs(records)
    nodes = np.arange(batch.n_nodes)
    src, dst = batch.adjacency.src, batch.adjacency.dst
    # the batch's edges are in CSR order as stored, and so are its nodes
    # by graph: both lexsorts are the identity
    np.testing.assert_array_equal(
        np.lexsort((src, dst)), np.arange(batch.n_edges))
    np.testing.assert_array_equal(
        np.lexsort((nodes, batch.pooling.dst)), nodes)
    np.testing.assert_array_equal(batch.pooling.src, nodes)
    # the same edges as the graphs' own, shifted by the node offsets
    want = set()
    for r, off in zip(records, np.cumsum([0] + [r.n_nodes for r in records])):
        want |= {(u + off, v + off) for u, v in r.topology.edges.tolist()}
    got = set(zip(src.tolist(), dst.tolist()))
    assert got == want and len(got) == batch.n_edges


@pytest.mark.parametrize("size", [1, 7, 32, 64])
def test_assembled_orders_equal_lexsort(mutag, synth_records, size):
    mutag_records = gd.build_node_features(mutag, "node-label-onehot").records
    rng = np.random.default_rng(size)
    for records in (mutag_records, synth_records):
        width = records[0].features.shape[1]
        empty = gd.GraphRecord(gd.GraphTopology(0, ()), 0,
                               features=np.zeros((0, width)))
        edgeless = gd.GraphRecord(gd.GraphTopology(3, ()), 0,
                                  features=np.ones((3, width)))
        for _ in range(3):
            pick = [records[i] for i in
                    rng.choice(len(records), size, replace=False)]
            _check_batch_orders(pick)
            middle = len(pick) // 2
            _check_batch_orders(pick[:middle] + [empty, edgeless]
                                + pick[middle:])


def test_topology_order_is_computed_once_and_shared(mutag, monkeypatch):
    ds = gd.build_node_features(mutag, "node-label-onehot")
    first = gd.batch_graphs(ds.records[:8])
    orders = [r.topology.csr_edges for r in ds.records[:8]]
    sorts = [count_calls(monkeypatch, np, name)
             for name in ("sort", "argsort", "lexsort")]
    closures = count_calls(monkeypatch, gd, "undirected_closure")
    second = gd.batch_graphs(ds.records[:8])
    assert closures == []  # the closure sorts with the ndarray method
    again = gd.build_node_features(ds, "degree-onehot", cap=4)
    for rec, rec_again, order in zip(ds.records, again.records, orders):
        assert rec.topology.csr_edges is order
        assert rec_again.topology.csr_edges is order
        assert not order.flags.writeable
    assert sorts == [[], [], []]
    np.testing.assert_array_equal(first.adjacency.src, second.adjacency.src)
    np.testing.assert_array_equal(first.adjacency.dst, second.adjacency.dst)
