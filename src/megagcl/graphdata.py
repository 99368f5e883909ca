"""Graph data model, TU-format ingestion, node features and batching.

The TU file convention: a dataset ``NAME`` is a directory holding
``NAME_A.txt`` (comma-separated 1-indexed directed edge pairs),
``NAME_graph_indicator.txt`` (one 1-indexed graph id per node line) and
``NAME_graph_labels.txt`` (one label per graph), plus an optional
``NAME_node_labels.txt``. Whitespace around commas and CRLF line endings are
tolerated. ``NAME_node_attributes.txt`` and ``NAME_edge_labels.txt`` are not
read: the parser warns that they are ignored.

A graph's edges have one rule, ``undirected_closure`` (no self-loops or
duplicates, every reverse present), and one order, CSR (by target, then
source). A parsed graph's ``edges`` already is its closure; ``csr_edges``
closes any topology, so a hand-built one batches like a TU file of its pairs.

Each file is read by numpy's C parser (``np.loadtxt``, comma delimited,
int64) with its warnings as errors. A file of empty lines only has no rows;
any other file the parser refuses, or one with another number of columns,
raises ``DataError`` naming its first line that is not that many
comma-separated integers that fit int64. Among the refused forms are ``1 2``,
``1, 2,``, ``1_0``, ``1.0``, whitespace-only lines and integers too large
for int64. The node-range check is vectorised, and a line number is found by
a rescan only when an error message needs one.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from .autodiff import SparsePattern
from .errors import ConfigError, DataError, require_count


@dataclass(frozen=True, eq=False)
class GraphTopology:
    """A graph of ``n_nodes`` nodes and its directed (u, v) pairs, ``edges``:
    an (E, 2) ``intp`` array made from an empty sequence or an (E, 2) integer
    array. Arrays do not compare with ``==``, so neither do topologies;
    compare ``edges`` with ``np.array_equal``.

    ``csr_edges``, the graph the encoder aggregates over, is computed on
    first use, which is also where a pair outside 0..n_nodes-1 raises
    ``DataError``, so parsing pays for neither.
    """

    n_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", _edge_array(self.edges))

    @cached_property
    def csr_edges(self):
        """The edges' undirected closure in CSR order, computed once and
        kept, read-only."""
        edges = undirected_closure(self.edges, self.n_nodes)
        edges.flags.writeable = False
        return edges


@dataclass
class GraphRecord:
    topology: GraphTopology
    label: int
    node_labels: list | None = None
    features: np.ndarray | None = None

    @property
    def n_nodes(self):
        return self.topology.n_nodes


@dataclass
class Dataset:
    name: str
    records: list
    n_classes: int

    def __len__(self):
        return len(self.records)

    @property
    def feature_width(self):
        first = self.records[0].features if self.records else None
        return None if first is None else first.shape[1]

    @property
    def labels(self):
        return np.array([r.label for r in self.records], dtype=np.intp)


@dataclass
class GraphBatch:
    """Block-diagonal concatenation of graphs.

    ``edge_src``/``edge_dst`` hold every graph's directed edges, shifted by
    its node offset, in CSR order (by target, then source), so both
    patterns take their edges as they stand: ``graph_of_node`` never
    decreases either. An edge weight vector is an aligned (n_edges, 1) column.
    """

    n_graphs: int
    n_nodes: int
    graph_of_node: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    features: np.ndarray

    @property
    def n_edges(self):
        return self.edge_src.shape[0]

    @cached_property
    def adjacency(self):
        """The edge list as an aggregation pattern from nodes to nodes,
        built on first use and kept for the life of the batch."""
        return SparsePattern(self.edge_src, self.edge_dst, self.n_nodes,
                             self.n_nodes)

    @cached_property
    def pooling(self):
        """The aggregation pattern from each node to its graph (readout),
        built on first use and kept for the life of the batch."""
        return SparsePattern(np.arange(self.n_nodes), self.graph_of_node,
                             self.n_graphs, self.n_nodes)


def _edge_array(pairs):
    """``pairs`` as an (E, 2) ``intp`` array: an empty sequence, or an
    (E, 2) integer array; anything else raises ``DataError``."""
    try:
        e = np.asarray(pairs)
    except ValueError:  # rows of different lengths
        e = np.asarray(pairs, dtype=object)
    e = np.empty((0, 2), dtype=np.intp) if e.shape == (0,) else e
    if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
        raise DataError("edges must be an (E, 2) integer array, got shape "
                        f"{e.shape} of dtype {e.dtype}")
    return e.astype(np.intp, copy=False)


def undirected_closure(edges, n_nodes):
    """Drop self-loops and duplicate pairs, add missing reverses.

    Returns an (E, 2) ``intp`` array of the distinct (source, target) pairs
    in CSR order, by target, then source; idempotent. A pair outside
    0..n_nodes-1, a self-loop too, raises ``DataError`` naming its row.
    """
    e = _edge_array(edges)
    if e.size and (e.min() < 0 or e.max() >= n_nodes):
        k = np.flatnonzero(((e < 0) | (e >= n_nodes)).any(axis=1))[0]
        raise DataError(f"edge {k} ({e[k, 0]}, {e[k, 1]}) is outside node "
                        f"range 0..{n_nodes - 1}")
    e = e[e[:, 0] != e[:, 1]]
    keys = np.concatenate([e[:, 0], e[:, 1]]) * n_nodes
    keys += np.concatenate([e[:, 1], e[:, 0]])
    keys.sort()
    first = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    # a symmetric set sorted by (a, b) is in CSR order read as (dst, src)
    dst, src = np.divmod(keys[first], max(n_nodes, 1))
    return np.stack([src, dst], axis=1)


def _find_dataset_dir(root_dir, name):
    root = Path(root_dir)
    for candidate in (root / name, root):
        if (candidate / f"{name}_A.txt").exists():
            return candidate
    raise DataError(
        f"missing mandatory file {name}_A.txt under {root} (or {root / name})")


# an int64 field: a sign, any leading zeros, then at most 19 digits
_INT64 = re.compile(r"([+-]?)0*([0-9]{1,19})")


def _is_int64(field):
    m = _INT64.fullmatch(field.strip())
    return m is not None and int(m[2]) < 2**63 + (m[1] == "-")


def _rows(path, width):
    """The file's rows as an (n, width) int64 array from numpy's C reader.

    Warnings are errors: numpy 1.24-1.26 read ``1.0`` as an int with a
    ``DeprecationWarning``. A file of empty lines only has zero rows; any
    other file the reader refuses, or one with another number of columns,
    raises ``DataError`` naming its first line that is not ``width``
    comma-separated integers that fit int64.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, dtype=np.int64, delimiter=",",
                              comments=None, ndmin=2)
        if rows.shape[1] == width:
            return rows
    except (OSError, ValueError, OverflowError, Warning):
        pass  # the scan below names the line, or finds no rows
    for i, line in _lines(path):
        fields = line.split(",")
        if len(fields) != width or not all(map(_is_int64, fields)):
            raise DataError(f"{path.name}:{i}: expected {width} "
                            "comma-separated integers that fit int64: "
                            f"{line!r}")
    return np.empty((0, width), dtype=np.int64)


def _lines(path):
    """The number and stripped text of each non-empty line of the file;
    the k-th of them holds row k of ``_rows``' array."""
    try:
        with path.open() as f:
            for i, line in enumerate(f, start=1):
                if line != "\n":
                    yield i, line.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path.name}: cannot be read: {exc}") from None


def _nth_line(path, k):
    """The number and stripped text of the line holding row k (0-based)."""
    return next(islice(_lines(path), k, None))


def _edges(path, n_nodes):
    """The (E, 2) 1-indexed pairs of an edge file, each within 1..n_nodes."""
    rows = _rows(path, 2)
    if rows.size and (rows.min() < 1 or rows.max() > n_nodes):
        k = np.flatnonzero(((rows < 1) | (rows > n_nodes)).any(axis=1))[0]
        i, line = _nth_line(path, k)
        raise DataError(f"{path.name}:{i}: node index exceeds indicator "
                        f"length ({n_nodes} nodes): {line!r}")
    return rows


def parse_tu_dataset(root_dir, name) -> Dataset:
    """Load a TU-convention dataset into 0-indexed per-graph records.

    Graph labels are remapped to 0..n_classes-1 preserving the sorted order
    of the raw labels; the undirected closure is enforced per graph.
    """
    folder = _find_dataset_dir(root_dir, name)
    a_path = folder / f"{name}_A.txt"
    ind_path = folder / f"{name}_graph_indicator.txt"
    lab_path = folder / f"{name}_graph_labels.txt"
    for p in (ind_path, lab_path):
        if not p.exists():
            raise DataError(f"missing mandatory file {p.name} under {folder}")

    indicator = _rows(ind_path, 1)[:, 0]
    if len(indicator) == 0:
        raise DataError(f"{ind_path.name}: the dataset holds no graphs")
    n_total = len(indicator)
    graph_ids = np.unique(indicator)
    if not np.array_equal(graph_ids, np.arange(1, len(graph_ids) + 1)):
        raise DataError(f"{ind_path.name}: graph ids are not 1..N")
    n_graphs = len(graph_ids)

    raw_labels = _rows(lab_path, 1)[:, 0]
    if len(raw_labels) != n_graphs:
        raise DataError(
            f"{lab_path.name}: {len(raw_labels)} labels for {n_graphs} graphs")
    classes, labels = np.unique(raw_labels, return_inverse=True)

    node_labels = None
    nl_path = folder / f"{name}_node_labels.txt"
    if nl_path.exists():
        node_labels = _rows(nl_path, 1)[:, 0]
        if len(node_labels) != n_total:
            raise DataError(
                f"{nl_path.name}: {len(node_labels)} labels for {n_total} nodes")
    for kind in ("edge_labels", "node_attributes"):
        if (folder / f"{name}_{kind}.txt").exists():
            warnings.warn(f"{name}: {kind.replace('_', ' ')} present but "
                          "unsupported; ignored")

    # graph-major node ids: a node's new id is its graph's start plus its
    # rank among that graph's nodes, which keeps the order of their old ids
    graph_of = indicator.astype(np.intp) - 1
    counts = np.bincount(graph_of, minlength=n_graphs)
    starts = np.cumsum(counts) - counts
    by_graph = np.argsort(graph_of, kind="stable")
    new_id = np.empty(n_total, dtype=np.intp)
    new_id[by_graph] = np.arange(n_total)
    if node_labels is not None:
        node_labels = node_labels[by_graph].tolist()

    pairs = _edges(a_path, n_total)
    graph_uv = graph_of[pairs - 1]
    crossing = np.flatnonzero(graph_uv[:, 0] != graph_uv[:, 1])
    if crossing.size:
        k = crossing[0]
        (u, v), (gu, gv) = pairs[k], graph_uv[k]
        raise DataError(
            f"{a_path.name}:{_nth_line(a_path, k)[0]}: edge ({u}, {v}) "
            f"crosses graphs {gu + 1} and {gv + 1}")

    # over graph-major ids the closure's CSR order, by target, also groups
    # the edges by graph, each group its graph's own closure in CSR order
    edges = undirected_closure(new_id[pairs - 1], n_total)
    bounds = np.searchsorted(edges[:, 1], starts)
    edges -= np.repeat(starts, np.diff(bounds, append=len(edges)))[:, None]
    records = [GraphRecord(
        GraphTopology(int(n), e), int(label),
        None if node_labels is None else node_labels[start:start + n])
        for n, start, e, label in zip(counts, starts,
                                      np.split(edges, bounds[1:]), labels)]

    return Dataset(name=name, records=records, n_classes=len(classes))


def degree_sequence(topology: GraphTopology):
    """Neighbour count per node over the closure, ``csr_edges``."""
    return np.bincount(topology.csr_edges[:, 0], minlength=topology.n_nodes)


def build_node_features(dataset: Dataset, scheme, cap=None) -> Dataset:
    """Attach one-hot node features.

    ``node-label-onehot``: width = number of distinct node labels in the
    dataset. ``degree-onehot``: width = cap + 1, degree d mapped to
    min(d, cap).
    """
    if scheme == "node-label-onehot":
        if any(r.node_labels is None for r in dataset.records):
            raise DataError(
                f"{dataset.name}: node-label-onehot requires node labels")
        vocab = np.array(sorted(set().union(*(r.node_labels
                                              for r in dataset.records))))
        width = len(vocab)

        def column(rec):
            return np.searchsorted(vocab, rec.node_labels)

    elif scheme == "degree-onehot":
        require_count("cap", cap, 1)
        width = cap + 1

        def column(rec):
            return np.minimum(degree_sequence(rec.topology), cap)

    else:
        raise ConfigError(f"unknown feature scheme: {scheme!r}")

    onehot = np.eye(width)
    records = [replace(r, features=onehot[column(r)]) for r in dataset.records]
    return replace(dataset, records=records)


def batch_graphs(records) -> GraphBatch:
    """Concatenate graphs block-diagonally.

    The global edge list is every graph's ``csr_edges``, its undirected
    closure in CSR order, shifted by its node offset. The offsets ascend,
    so the batch's edges are in CSR order as they stand.
    """
    if not records:
        raise DataError("cannot batch an empty record list")
    widths = {r.features.shape[1] if r.features is not None else None
              for r in records}
    if None in widths or len(widths) != 1:
        raise DataError(f"feature width mismatch across batch: {widths}")
    for i, r in enumerate(records):
        if r.features.shape[0] != r.n_nodes:
            raise DataError(
                f"record {i} of the batch has {r.n_nodes} nodes but "
                f"{r.features.shape[0]} feature rows")

    sizes = np.array([r.n_nodes for r in records], dtype=np.intp)
    per_graph = [r.topology.csr_edges for r in records]
    edges = np.concatenate(per_graph)
    shift = np.repeat(np.cumsum(sizes) - sizes, [len(e) for e in per_graph])
    return GraphBatch(
        n_graphs=len(records),
        n_nodes=int(sizes.sum()),
        graph_of_node=np.repeat(np.arange(len(records), dtype=np.intp), sizes),
        edge_src=edges[:, 0] + shift,
        edge_dst=edges[:, 1] + shift,
        features=np.concatenate([r.features for r in records], axis=0),
    )
