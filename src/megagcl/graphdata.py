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
source). A topology's ``edges``, the closure, is made and range-checked
where the topology is made, so a hand-built one batches like a TU file of
its pairs, and a pair outside its nodes raises there. The parser closes
the whole dataset's pairs in one pass, and ``build_node_features`` one-hots
the whole dataset in one array, of which each record's ``features`` is a
read-only row view. ``batch_graphs`` builds a batch together with its
aggregation patterns.

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

import operator
import re
import warnings
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .autodiff import SparsePattern
from .errors import ConfigError, DataError, require_count

FEATURE_SCHEMES = ("node-label-onehot", "degree-onehot")


@dataclass(frozen=True, eq=False)
class GraphTopology:
    """A graph of ``n_nodes`` nodes, an int of at least 0, and ``edges``,
    the closure: ``undirected_closure`` of the pairs it is made from, an
    empty sequence or an (E, 2) integer array, as a read-only (E, 2)
    ``intp`` array of its own. Pairs of any other form, or a pair outside
    0..n_nodes-1, raise ``DataError`` at construction. Arrays do not
    compare with ``==``, so neither do topologies; compare ``edges`` with
    ``np.array_equal``.
    """

    n_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        n = self.n_nodes
        if type(n) is bool or not isinstance(n, (int, np.integer)) or n < 0:
            raise DataError(f"n_nodes must be an int of at least 0, got {n!r}")
        edges = undirected_closure(self.edges, int(n))
        edges.flags.writeable = False
        object.__setattr__(self, "n_nodes", int(n))
        object.__setattr__(self, "edges", edges)


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
    """Block-diagonal concatenation of graphs: their stacked ``features``,
    ``adjacency`` from nodes to nodes over every graph's directed edges,
    shifted by its node offset, in CSR order (by target, then source), and
    ``pooling`` from each node to its graph (readout). ``batch_graphs``
    builds both patterns; an edge weight is an aligned (n_edges, 1) column.
    """

    n_graphs: int
    n_nodes: int
    features: np.ndarray
    adjacency: SparsePattern
    pooling: SparsePattern

    @property
    def n_edges(self):
        return self.adjacency.src.shape[0]


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
    loops = e[:, 0] == e[:, 1]
    if loops.any():  # rare, so the copy is only taken where needed
        e = e[~loops]
    # the key a * n_nodes + b of each pair (a, b), then of its reverse
    m = len(e)
    keys = np.empty(2 * m, dtype=np.intp)
    np.multiply(e[:, 0], n_nodes, out=keys[:m])
    np.multiply(e[:, 1], n_nodes, out=keys[m:])
    keys[:m] += e[:, 1]
    keys[m:] += e[:, 0]
    keys.sort()
    first = np.empty(keys.shape, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    # compress outruns a boolean index where half the keys repeat
    keys = np.compress(first, keys)
    # a symmetric set sorted by (a, b) is in CSR order read as (dst, src)
    out = np.empty((len(keys), 2), dtype=np.intp)
    np.divmod(keys, max(n_nodes, 1), out=(out[:, 1], out[:, 0]))
    return out


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
    of the raw labels. Each graph's ``edges``, the closure, is a read-only
    view of one array: the whole dataset is closed in one pass.
    """
    folder = _find_dataset_dir(root_dir, name)
    a_path = folder / f"{name}_A.txt"
    ind_path = folder / f"{name}_graph_indicator.txt"
    lab_path = folder / f"{name}_graph_labels.txt"
    for p in (ind_path, lab_path):
        if not p.exists():
            raise DataError(f"missing mandatory file {p.name} under {folder}")

    indicator = _rows(ind_path, 1)[:, 0]
    n_total = len(indicator)
    if n_total == 0:
        raise DataError(f"{ind_path.name}: the dataset holds no graphs")
    # bounded by the node count first, so a huge id allocates no bincount;
    # then the ids are 1..N when no count up to the largest id is 0
    if indicator.min() < 1 or indicator.max() > n_total:
        raise DataError(f"{ind_path.name}: graph ids are not 1..N")
    graph_of = indicator.astype(np.intp) - 1
    counts = np.bincount(graph_of)
    if not counts.all():
        raise DataError(f"{ind_path.name}: graph ids are not 1..N")
    n_graphs = len(counts)

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
    starts = np.cumsum(counts) - counts
    by_graph = np.argsort(graph_of, kind="stable")
    new_id = np.empty(n_total, dtype=np.intp)
    new_id[by_graph] = np.arange(n_total)
    if node_labels is not None:
        node_labels = node_labels[by_graph].tolist()

    pairs = _edges(a_path, n_total)
    pairs -= 1  # 0-indexed from here on
    graph_uv = graph_of[pairs]
    crossing = np.flatnonzero(graph_uv[:, 0] != graph_uv[:, 1])
    if crossing.size:
        k = crossing[0]
        (u, v), (gu, gv) = pairs[k] + 1, graph_uv[k] + 1
        raise DataError(
            f"{a_path.name}:{_nth_line(a_path, k)[0]}: edge ({u}, {v}) "
            f"crosses graphs {gu} and {gv}")

    # over graph-major ids the closure's CSR order, by target, also groups
    # the edges by graph, each group its graph's own closure in CSR order
    edges = undirected_closure(new_id[pairs], n_total)
    bounds = np.searchsorted(edges[:, 1], starts)
    ends = np.append(bounds[1:], len(edges))
    edges -= np.repeat(starts, ends - bounds)[:, None]
    edges.flags.writeable = False  # so is every graph's view of it
    records = [GraphRecord(
        _closed_topology(n, e), label,
        None if node_labels is None else node_labels[start:start + n])
        for n, start, e, label in zip(counts.tolist(), starts.tolist(),
                                      _blocks(edges, ends.tolist()),
                                      labels.tolist())]

    return Dataset(name=name, records=records, n_classes=len(classes))


def _blocks(array, ends):
    """Views of ``array``'s consecutive row blocks, the k-th ending at row
    ``ends[k]``: ``np.split`` without its cost per block."""
    return [array[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _closed_topology(n_nodes, edges):
    """A topology over ``edges`` that already are their own closure in CSR
    order, read-only, as each parsed graph's are. ``__post_init__`` is
    skipped, so no graph is closed twice."""
    topology = object.__new__(GraphTopology)
    object.__setattr__(topology, "n_nodes", n_nodes)
    object.__setattr__(topology, "edges", edges)
    return topology


def degree_sequence(topology: GraphTopology):
    """Neighbour count per node over ``edges``, the closure."""
    return np.bincount(topology.edges[:, 0], minlength=topology.n_nodes)


def _node_label_array(dataset):
    """Every record's node labels, in order, as one int64 array. A label
    that is not an integer within int64 raises ``DataError`` naming its
    record."""
    def read(records):
        labels = chain.from_iterable(r.node_labels for r in records)
        return np.fromiter(map(operator.index, labels), np.int64,
                           count=sum(len(r.node_labels) for r in records))

    try:
        return read(dataset.records)
    except (TypeError, OverflowError):
        for i, rec in enumerate(dataset.records):  # name the record
            try:
                read([rec])
            except (TypeError, OverflowError) as exc:
                raise DataError(f"{dataset.name}: record {i}: node labels "
                                f"must be integers within int64 ({exc})") \
                    from None
        raise


def build_node_features(dataset: Dataset, scheme, cap=None) -> Dataset:
    """Attach one-hot node features, built for the whole dataset at once:
    each record's ``features`` is a read-only view of its rows of one
    float64 array.

    ``node-label-onehot``: width = number of distinct node labels in the
    dataset, a label's column its rank among them; a label that is not an
    integer within int64 raises ``DataError`` naming its record.
    ``degree-onehot``: width = cap + 1, degree d mapped to min(d, cap).
    """
    if scheme == "node-label-onehot":
        if any(r.node_labels is None for r in dataset.records):
            raise DataError(
                f"{dataset.name}: node-label-onehot requires node labels")
        sizes = [len(r.node_labels) for r in dataset.records]
        vocab, column = np.unique(_node_label_array(dataset),
                                  return_inverse=True)
        width = len(vocab)
    elif scheme == "degree-onehot":
        require_count("cap", cap, 1)
        width = cap + 1
        degrees = [degree_sequence(r.topology) for r in dataset.records]
        sizes = [len(d) for d in degrees]
        # the empty head serves a dataset of no records
        column = np.minimum(np.concatenate([np.empty(0, np.intp), *degrees]),
                            cap)
    else:
        raise ConfigError(f"unknown feature scheme: {scheme!r}")

    features = np.eye(width)[column]
    features.flags.writeable = False
    rows = _blocks(features, np.cumsum(sizes).tolist())
    records = [replace(r, features=f) for r, f in zip(dataset.records, rows)]
    return replace(dataset, records=records)


def batch_graphs(records) -> GraphBatch:
    """Concatenate graphs block-diagonally and build both patterns.

    The adjacency's edges are every graph's ``edges``, the closure, in CSR
    order, shifted by its node offset. The offsets ascend, so the edges are
    in CSR order as they stand, and so are pooling's.
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
    per_graph = [r.topology.edges for r in records]
    edges = np.concatenate(per_graph)
    shift = np.repeat(np.cumsum(sizes) - sizes, [len(e) for e in per_graph])
    n_graphs, n_nodes = len(records), int(sizes.sum())
    return GraphBatch(
        n_graphs=n_graphs,
        n_nodes=n_nodes,
        features=np.concatenate([r.features for r in records], axis=0),
        adjacency=SparsePattern(edges[:, 0] + shift, edges[:, 1] + shift,
                                n_nodes, n_nodes),
        pooling=SparsePattern(np.arange(n_nodes), np.repeat(
            np.arange(n_graphs), sizes), n_graphs, n_nodes))
