"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

Every backward rule is expressed in terms of the same primitive operations,
so a backward pass run with ``create_graph=True`` is itself recorded on the
tape and the returned gradients can be differentiated again. That is the
mechanism the training loop relies on to push gradients through a gradient
step.

Each primitive's forward takes its input tensors and options as arguments
and checks every shape condition itself; no wrapper repeats a check.
Scalars are tensors of shape ``(1,)``; matrices are 2-D. Elementwise add,
sub and mul broadcast in exactly three cases: scalar against anything,
``(1, m)`` row against ``(n, m)``, and ``(n, 1)`` column against ``(n, m)``.

Nothing writes into a tensor's data once it is made, so an output may be a
view of an input. ``transpose`` returns the transposed view, and
``matmul(a, b, ta, tb)`` hands BLAS that view of an operand flagged ``ta``
or ``tb``, so a product with a transposed operand, and each gradient of a
product, is one node that copies nothing.

``sum_rows``, ``sum_cols`` and ``diagonal`` are primitives whose gradients
``broadcast`` and ``embed_diagonal`` copy values rather than multiply by
ones-matrices. The sums take a product with a ones vector, which is faster
than ``np.sum`` along an axis.

``dense(x, w, b, relu)`` is one perceptron layer, ``x @ w + b`` with an
optional relu, as one node and one array. It fills that array in blocks of
rows sized by ``DENSE_BLOCK_BYTES``: each block's product is written in
place, then the bias row is added and the relu applied while the block is
still in cache. An output under two blocks is one product. Its values and
gradients are bitwise those of the ``matmul``, ``add`` and ``relu`` chain;
``relu`` stays as the unfused oracle the tests compare it against.

``weighted_aggregate`` is A_w @ x over edges stored in CSR order, so their
weight column is the sparse matrix's data as it stands; ``self_term`` adds
``x``, GIN's self term, into the product's fresh output. The weights'
gradient is one ``edge_dots`` node, the dots ``g[dst[e]] . x[src[e]]``
summed as ``sum_rows`` sums, whose own gradients are two more aggregations.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import NumericError, ShapeError, TapeError, require_real

LEAF = "leaf"


class Tensor:
    """Dense float64 array plus an optional handle into the active tape.

    A Tensor without a node id is a constant: it never receives a gradient,
    and operations on constants alone are not recorded. The constructor
    stores ``data`` as given, so it must already be a float64 array of at
    least one dimension; ``constant`` coerces anything else.
    """

    __slots__ = ("data", "node_id")

    def __init__(self, data, node_id=None):
        self.data = data
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ShapeError("item", [self.shape], "expected a scalar")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        tag = "const" if self.node_id is None else f"node {self.node_id}"
        return f"Tensor(shape={self.shape}, {tag})"


class _Node:
    """One recorded primitive application (or a leaf root)."""

    __slots__ = ("kind", "inputs", "out", "extras")

    def __init__(self, kind, inputs, out, extras):
        self.kind = kind
        self.inputs = inputs
        self.out = out
        self.extras = extras


class Tape:
    """Append-only record of primitive applications, in topological order."""

    def __init__(self):
        self.nodes = []
        self._pause_depth = 0

    @contextmanager
    def paused(self):
        self._pause_depth += 1
        try:
            yield
        finally:
            self._pause_depth -= 1

    def adopt(self, t: Tensor) -> Tensor:
        """Register ``t`` as a leaf root of this tape (in place)."""
        self.nodes.append(_Node(LEAF, (), t, None))
        t.node_id = len(self.nodes) - 1
        return t

    def reset(self):
        """Drop all nodes. Node ids handed out before this become invalid."""
        self.nodes.clear()


_tls = threading.local()


def active_tape():
    return getattr(_tls, "tape", None)


@contextmanager
def use_tape(tape: Tape):
    prev = active_tape()
    _tls.tape = tape
    try:
        yield tape
    finally:
        _tls.tape = prev


def constant(data) -> Tensor:
    """An off-tape tensor of ``data`` as a float64 array, with a scalar
    stored as shape ``(1,)``."""
    arr = np.asarray(data, dtype=np.float64)
    return Tensor(arr.reshape(1) if arr.ndim == 0 else arr)


def variable(data) -> Tensor:
    """A leaf tensor registered on the active tape."""
    tape = active_tape()
    if tape is None:
        raise TapeError("variable() requires an active tape")
    return tape.adopt(constant(data))


def detach(t: Tensor) -> Tensor:
    """Same data, off the tape: downstream ops treat it as a constant."""
    return Tensor(t.data, None)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def _is_scalar(shape):
    return math.prod(shape) == 1


def _broadcast_shape(kind, a, b):
    sa, sb = a.shape, b.shape
    if sa == sb:
        return sa
    if _is_scalar(sa):
        return sb
    if _is_scalar(sb):
        return sa
    if len(sa) == 2 and len(sb) == 2:
        if sa[1] == sb[1] and 1 in (sa[0], sb[0]):
            return (max(sa[0], sb[0]), sa[1])
        if sa[0] == sb[0] and 1 in (sa[1], sb[1]):
            return (sa[0], max(sa[1], sb[1]))
    raise ShapeError(kind, [sa, sb])


def _require_2d(kind, *tensors):
    for t in tensors:
        if t.data.ndim != 2:
            raise ShapeError(kind, [t.shape], "expected a 2-D tensor")


class SparsePattern:
    """The fixed structure of a weighted aggregation over ``E`` edges: an
    (n_out, n_in) sparse matrix with one entry at (dst[e], src[e]) per edge.

    The edges come in CSR order, checked here: ``dst`` never decreases, and
    ``src`` is the matrix's column indices as it stands, so entry e of
    ``csr`` is edge e and a row adds its terms in edge order. Nothing sorts:
    ``weighted_aggregate`` copies an aligned weight column into the data.

    ``csr_t`` is the transpose as a CSC view over ``csr``'s three arrays,
    so it sees the weights written into ``csr.data`` and needs no build of
    its own.
    """

    __slots__ = ("src", "dst", "n_out", "n_in", "csr", "csr_t")

    def __init__(self, src, dst, n_out, n_in):
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        n_out, n_in = int(n_out), int(n_in)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ShapeError("weighted-aggregate", [src.shape, dst.shape],
                             "sources and targets must be equal 1-D shapes")
        if src.size and (src.min() < 0 or src.max() >= n_in):
            raise ShapeError("weighted-aggregate", [src.shape, dst.shape],
                             f"source out of range for {n_in} input rows")
        if dst.size and (dst.min() < 0 or dst.max() >= n_out):
            raise ShapeError("weighted-aggregate", [src.shape, dst.shape],
                             f"target out of range for {n_out} output rows")
        if np.any(dst[1:] < dst[:-1]):
            raise ShapeError("weighted-aggregate", [src.shape, dst.shape],
                             "targets must never decrease (CSR order)")
        self.src, self.dst, self.n_out, self.n_in = src, dst, n_out, n_in
        indptr = np.zeros(n_out + 1, dtype=np.intp)
        np.cumsum(np.bincount(dst, minlength=n_out), out=indptr[1:])
        self.csr = scipy.sparse.csr_matrix(
            (np.zeros(src.size), src, indptr), shape=(n_out, n_in))
        self.csr_t = self.csr.T


def _f_add(a, b):
    _broadcast_shape("add", a, b)
    return a.data + b.data


def _f_sub(a, b):
    _broadcast_shape("sub", a, b)
    return a.data - b.data


def _f_mul(a, b):
    _broadcast_shape("mul", a, b)
    return a.data * b.data


def _f_matmul(a, b, ta, tb):
    _require_2d("matmul", a, b)
    if a.shape[0 if ta else 1] != b.shape[1 if tb else 0]:
        raise ShapeError("matmul", [a.shape, b.shape],
                         f"inner dimensions differ (ta={ta}, tb={tb})")
    return (a.data.T if ta else a.data) @ (b.data.T if tb else b.data)


# Output bytes per row block of ``dense``: the bias and relu then touch rows
# BLAS has just written, still in L2, not a whole output streamed back from
# L3. Two rules keep every value bitwise the one-call product's: a block's
# rows are a multiple of 8 (5- and 13-row blocks took another BLAS path and
# changed bits), and the remainder joins the last block rather than forming a
# short one (a 1-row block is a vector-matrix product). At 12815 x 32 by
# 32 x 32 with relu, 64, 128 and 256 KiB blocks took 1.14, 1.07 and 1.34 ms
# against 1.42 ms unblocked (OpenBLAS 0.3.31, one thread, on a Xeon with
# 2 MiB of L2 per core).
DENSE_BLOCK_BYTES = 128 << 10


def _f_dense(x, w, b, relu):
    _require_2d("dense", x, w, b)
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError("dense", [x.shape, w.shape, b.shape],
                         "expected x (n, k), w (k, m) and a (1, m) bias")
    n, m = x.shape[0], w.shape[1]
    rows = max(8, DENSE_BLOCK_BYTES // (64 * max(m, 1)) * 8)
    out = np.empty((n, m))
    # blocks start at multiples of rows and the last runs to n, so an output
    # under 2 * rows rows is one product
    for lo in range(0, max(n - rows, 0) + 1, rows):
        hi = lo + rows if lo + 2 * rows <= n else n
        blk = out[lo:hi]
        np.matmul(x.data[lo:hi], w.data, out=blk)
        blk += b.data
        if relu:
            np.maximum(blk, 0.0, out=blk)
    return out


def _f_sum(x):
    return np.array([x.data.sum()])


def _f_mean(x):
    return np.array([x.data.mean()])


def _f_relu(x):
    return np.maximum(x.data, 0.0)


def _f_sigmoid(x):
    x = x.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _f_exp(x):
    return np.exp(x.data)


def _f_log(x):
    return np.log(x.data)


def _f_square(x):
    return np.square(x.data)


def _f_sqrt(x):
    return np.sqrt(x.data)


def _f_reciprocal(x):
    return 1.0 / x.data


def _f_transpose(x):
    _require_2d("transpose", x)
    return x.data.T


def _f_sum_rows(x):
    _require_2d("sum-rows", x)
    return x.data @ np.ones((x.shape[1], 1))


def _f_sum_cols(x):
    _require_2d("sum-cols", x)
    return np.ones((1, x.shape[0])) @ x.data


def _f_broadcast(x, shape):
    fits = len(shape) == 2 == x.data.ndim and all(
        d in (1, want) for d, want in zip(x.shape, shape))
    if not (fits or x.shape == (1,)):
        raise ShapeError("broadcast", [x.shape, shape], "cannot broadcast")
    out = np.empty(shape)
    out[...] = x.data
    return out


def _f_diagonal(x):
    _require_2d("diagonal", x)
    if x.shape[0] != x.shape[1]:
        raise ShapeError("diagonal", [x.shape], "expected a square matrix")
    return x.data.diagonal().reshape(-1, 1).copy()


def _f_embed_diagonal(x):
    if x.data.ndim != 2 or x.shape[1] != 1:
        raise ShapeError("embed-diagonal", [x.shape], "expected a column")
    n = x.shape[0]
    out = np.zeros((n, n))
    out.flat[::n + 1] = x.data[:, 0]
    return out


def _f_l2_normalize_rows(x):
    _require_2d("l2-normalize-rows", x)
    x = x.data
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    zero = np.flatnonzero(norms.ravel() == 0.0)
    if zero.size:
        raise NumericError(f"l2-normalize-rows: zero-norm row {int(zero[0])}")
    return x / norms


def _f_edge_dots(g, x, pattern, transposed):
    _require_2d("edge-dots", g, x)
    ends = [(pattern.dst, pattern.n_out), (pattern.src, pattern.n_in)]
    (g_rows, n_g), (x_rows, n_x) = ends[::-1] if transposed else ends
    if g.shape[0] != n_g or x.shape[0] != n_x or g.shape[1] != x.shape[1]:
        raise ShapeError("edge-dots", [g.shape, x.shape],
                         f"expected {n_g} and {n_x} rows of equal width")
    # the products in one gathered buffer, summed as sum-rows sums
    out = g.data[g_rows]
    out *= x.data[x_rows]
    return out @ np.ones((out.shape[1], 1))


def _f_weighted_aggregate(x, w, pattern, transposed, self_term):
    _require_2d("weighted-aggregate", x)
    n_edges = pattern.src.shape[0]
    n_rows = pattern.n_out if transposed else pattern.n_in
    if w.shape != (n_edges, 1) or x.shape[0] != n_rows:
        raise ShapeError("weighted-aggregate", [x.shape, w.shape],
                         f"expected ({n_edges}, 1) weights and "
                         f"{n_rows} input rows")
    if self_term and pattern.n_out != pattern.n_in:
        raise ShapeError("weighted-aggregate", [(pattern.n_out, pattern.n_in)],
                         "a self term needs a square pattern")
    # every call overwrites the buffer the matrix shares with its transposed
    # view; the tape is single-threaded, so no call sees another's weights
    np.copyto(pattern.csr.data, w.data[:, 0])
    out = (pattern.csr_t if transposed else pattern.csr) @ x.data
    if self_term:  # the product is a fresh array, so x adds into it
        out += x.data
    return out


def _f_scalar_scale(x, factor):
    return x.data * factor


def _reduce_to(g: Tensor, shape) -> Tensor:
    """Sum ``g`` back down to ``shape`` (inverse of a broadcast)."""
    if g.shape == shape:
        return g
    if shape == (1,):
        return reduce_sum(g)
    if len(shape) == 2 and g.data.ndim == 2:
        n, m = g.shape
        if shape in ((1, 1), (1, m), (n, 1)):
            # a sum over a length-1 axis is the identity: skip it; one over
            # a length-0 axis (an edgeless batch) is zeros
            if shape[1] == 1 and m != 1:
                g = sum_rows(g)
            if shape[0] == 1 and n != 1:
                g = sum_cols(g)
            return g
    raise ShapeError("reduce", [g.shape, shape], "cannot reduce gradient")


# A VJP rule takes the node, the gradient of its output and ``need``, one
# flag per input, and returns one gradient per input, None where the flag is
# off. ``backward`` calls a rule only when some flag is on, so the rules of
# one-input primitives ignore ``need``.

def _v_add(node, g, need):
    a, b = node.inputs
    return [_reduce_to(g, a.shape) if need[0] else None,
            _reduce_to(g, b.shape) if need[1] else None]


def _v_sub(node, g, need):
    a, b = node.inputs
    return [_reduce_to(g, a.shape) if need[0] else None,
            _reduce_to(scalar_scale(g, -1.0), b.shape) if need[1] else None]


def _v_mul(node, g, need):
    a, b = node.inputs
    return [_reduce_to(mul(g, b), a.shape) if need[0] else None,
            _reduce_to(mul(g, a), b.shape) if need[1] else None]


def _v_matmul(node, g, need):
    # the gradient of each operand as it enters the product, transposed
    # back when the operand is flagged: the same products, in the same
    # order, as the unflagged product of an explicit ``transpose``
    a, b = node.inputs
    ta, tb = node.extras["ta"], node.extras["tb"]
    ga = gb = None
    if need[0]:
        ga = matmul(g, b, tb=not tb)
        if ta:
            ga = transpose(ga)
    if need[1]:
        gb = matmul(a, g, ta=not ta)
        if tb:
            gb = transpose(gb)
    return [ga, gb]


def _v_dense(node, g, need):
    # the nodes of the rules of relu, add and matmul, in the order in which
    # those rules built them; the output is positive where the input was
    x, w, b = node.inputs
    if node.extras["relu"]:
        g = mul(g, constant((node.out.data > 0).astype(np.float64)))
    gb = _reduce_to(g, b.shape) if need[2] else None
    gx = matmul(g, w, tb=True) if need[0] else None
    gw = matmul(x, g, ta=True) if need[1] else None
    return [gx, gw, gb]


def _v_sum(node, g, need):
    # also the rule of sum-rows and sum-cols
    return [broadcast(g, node.inputs[0].shape)]


def _v_mean(node, g, need):
    (x,) = node.inputs
    return [mul(constant(np.full(x.shape, 1.0 / x.data.size)), g)]


def _v_relu(node, g, need):
    (x,) = node.inputs
    return [mul(g, constant((x.data > 0).astype(np.float64)))]


def _v_sigmoid(node, g, need):
    s = node.out
    return [mul(g, mul(s, sub(constant(np.ones(s.shape)), s)))]


def _v_exp(node, g, need):
    return [mul(g, node.out)]


def _v_log(node, g, need):
    return [mul(g, reciprocal(node.inputs[0]))]


def _v_square(node, g, need):
    return [mul(g, scalar_scale(node.inputs[0], 2.0))]


def _v_sqrt(node, g, need):
    return [mul(g, scalar_scale(reciprocal(node.out), 0.5))]


def _v_reciprocal(node, g, need):
    return [scalar_scale(mul(g, square(node.out)), -1.0)]


def _v_transpose(node, g, need):
    return [transpose(g)]


def _v_broadcast(node, g, need):
    return [_reduce_to(g, node.inputs[0].shape)]


def _v_diagonal(node, g, need):
    return [embed_diagonal(g)]


def _v_embed_diagonal(node, g, need):
    return [diagonal(g)]


def _v_l2_normalize_rows(node, g, need):
    (x,) = node.inputs
    out = node.out
    norms = sqrt(sum_rows(square(x)))
    dot = sum_rows(mul(g, out))
    return [mul(sub(g, mul(out, dot)), reciprocal(norms))]


def _v_edge_dots(node, g, need):
    # each input's gradient aggregates the other's rows, weighted by g
    a, b = node.inputs
    pattern, transposed = node.extras["pattern"], node.extras["transposed"]
    ga = weighted_aggregate(b, g, pattern, transposed) if need[0] else None
    gb = weighted_aggregate(a, g, pattern, not transposed) if need[1] else None
    return [ga, gb]


def _v_weighted_aggregate(node, g, need):
    # in training only the meta step's augmenter weights take the w rule
    x, w = node.inputs
    pattern, transposed = node.extras["pattern"], node.extras["transposed"]
    gx = weighted_aggregate(g, w, pattern, not transposed,
                            node.extras["self_term"]) if need[0] else None
    gw = edge_dots(g, x, pattern, transposed) if need[1] else None
    return [gx, gw]


def _v_scalar_scale(node, g, need):
    return [scalar_scale(g, node.extras["factor"])]


_PRIMITIVES = {
    "add": (_f_add, _v_add),
    "sub": (_f_sub, _v_sub),
    "mul": (_f_mul, _v_mul),
    "matmul": (_f_matmul, _v_matmul),
    "dense": (_f_dense, _v_dense),
    "sum": (_f_sum, _v_sum),
    "mean": (_f_mean, _v_mean),
    "relu": (_f_relu, _v_relu),
    "sigmoid": (_f_sigmoid, _v_sigmoid),
    "exp": (_f_exp, _v_exp),
    "log": (_f_log, _v_log),
    "square": (_f_square, _v_square),
    "sqrt": (_f_sqrt, _v_sqrt),
    "reciprocal": (_f_reciprocal, _v_reciprocal),
    "transpose": (_f_transpose, _v_transpose),
    "sum-rows": (_f_sum_rows, _v_sum),
    "sum-cols": (_f_sum_cols, _v_sum),
    "broadcast": (_f_broadcast, _v_broadcast),
    "diagonal": (_f_diagonal, _v_diagonal),
    "embed-diagonal": (_f_embed_diagonal, _v_embed_diagonal),
    "l2-normalize-rows": (_f_l2_normalize_rows, _v_l2_normalize_rows),
    "edge-dots": (_f_edge_dots, _v_edge_dots),
    "weighted-aggregate": (_f_weighted_aggregate, _v_weighted_aggregate),
    "scalar-scale": (_f_scalar_scale, _v_scalar_scale),
}


def primitive_forward(kind, inputs, **extras) -> Tensor:
    """Apply one primitive operation.

    Every input must be a ``Tensor``: wrap an array with ``constant``; a
    wrong number of inputs raises ``TypeError``. Appends a tape node iff a
    tape is active, recording is not paused, and at least one input
    carries a node id.
    """
    try:
        forward, _ = _PRIMITIVES[kind]
    except KeyError:
        raise TapeError(f"unknown primitive kind: {kind!r}") from None
    out = Tensor(forward(*inputs, **extras))
    tape = getattr(_tls, "tape", None)
    if tape is not None and tape._pause_depth == 0:
        for t in inputs:
            if t.node_id is not None:
                nodes = tape.nodes
                nodes.append(_Node(kind, tuple(inputs), out, extras or None))
                out.node_id = len(nodes) - 1
                break
    return out


def add(a, b):
    return primitive_forward("add", [a, b])


def sub(a, b):
    return primitive_forward("sub", [a, b])


def mul(a, b):
    return primitive_forward("mul", [a, b])


def matmul(a, b, ta=False, tb=False):
    """``a @ b``, with ``a`` transposed when ``ta`` and ``b`` when ``tb``."""
    return primitive_forward("matmul", [a, b], ta=ta, tb=tb)


def dense(x, w, b, relu=False):
    """One perceptron layer: ``x @ w + b``, through a relu when ``relu``.

    ``x`` is (n, k), ``w`` is (k, m) and the bias ``b`` is a (1, m) row.
    The output is computed in row blocks of about ``DENSE_BLOCK_BYTES``,
    each block's bias and relu applied right after its product; the bits
    are those of one product over all rows.
    """
    return primitive_forward("dense", [x, w, b], relu=relu)


def reduce_sum(x):
    return primitive_forward("sum", [x])


def reduce_mean(x):
    return primitive_forward("mean", [x])


def relu(x):
    """``max(x, 0)``. The model's layers take theirs inside ``dense``; this
    unfused form is the oracle ``dense`` is tested against."""
    return primitive_forward("relu", [x])


def sigmoid(x):
    return primitive_forward("sigmoid", [x])


def exp(x):
    return primitive_forward("exp", [x])


def log(x):
    return primitive_forward("log", [x])


def square(x):
    return primitive_forward("square", [x])


def sqrt(x):
    return primitive_forward("sqrt", [x])


def reciprocal(x):
    return primitive_forward("reciprocal", [x])


def transpose(x):
    return primitive_forward("transpose", [x])


def sum_rows(x):
    """Each row's sum: (n, m) -> (n, 1)."""
    return primitive_forward("sum-rows", [x])


def sum_cols(x):
    """Each column's sum: (n, m) -> (1, m)."""
    return primitive_forward("sum-cols", [x])


def broadcast(x, shape):
    """Copy a scalar, an (n, 1) column or a (1, m) row out to ``shape``."""
    return primitive_forward("broadcast", [x], shape=tuple(shape))


def diagonal(x):
    """The diagonal of a square matrix as a column: (n, n) -> (n, 1)."""
    return primitive_forward("diagonal", [x])


def embed_diagonal(x):
    """The (n, n) matrix with column ``x`` on its diagonal, zero elsewhere."""
    return primitive_forward("embed-diagonal", [x])


def l2_normalize_rows(x):
    return primitive_forward("l2-normalize-rows", [x])


def weighted_aggregate(x, w, pattern, transposed=False, self_term=False):
    """Row ``t`` of the (n_out, F) result is the sum of ``w[e] * x[src[e]]``
    over the edges ``e`` with ``dst[e] == t``: A_w @ x for the sparse
    matrix A_w with entries ``w[e]`` at (dst[e], src[e]). With ``transposed``
    it is A_w^T @ x: ``x`` has ``n_out`` rows. ``self_term`` adds ``x``
    after the neighbour sum, (A_w + I) @ x, and needs a square pattern.

    ``pattern`` is the ``SparsePattern`` of ``src``, ``dst``, ``n_out`` and
    ``n_in`` (the row count of ``x``), edges in CSR order; ``w`` is an (E, 1)
    column aligned with them. Build the pattern once and reuse it for every
    call over the same edges: each call then costs one copy of ``w`` and
    one sparse product, not a rebuild.
    """
    return primitive_forward("weighted-aggregate", [x, w], pattern=pattern,
                             transposed=transposed, self_term=self_term)


def edge_dots(g, x, pattern, transposed=False):
    """The (E, 1) column of ``g[dst[e]] . x[src[e]]`` over ``pattern``'s
    edges, with ``src`` and ``dst`` swapped when ``transposed``."""
    return primitive_forward("edge-dots", [g, x], pattern=pattern,
                             transposed=transposed)


def scalar_scale(x, factor):
    return primitive_forward("scalar-scale", [x], factor=float(factor))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor, params, create_graph=False) -> dict:
    """Reverse-mode gradients of a scalar loss with respect to ``params``,
    as a dict keyed by the parameter tensors, which hash by identity.

    With ``create_graph`` the backward computation itself is recorded on the
    tape, so every returned gradient carries a node id and a later backward
    over a function of the gradients yields second derivatives.

    Only gradients that can reach a requested parameter are built. Before
    the reverse pass, one ascending pass over the tape up to the loss marks
    each parameter and every node with a marked input (the tape is in
    topological order); a rule then builds an input's gradient only if that
    input is marked, so a constant never gets one. A marked node the loss
    does not reach gets no gradient and is skipped. With ``create_graph``
    the tape thus records no gradient that the returned gradients do not
    use.
    """
    tape = active_tape()
    if tape is None:
        raise TapeError("backward() requires an active tape")
    if loss.node_id is None:
        raise TapeError("loss is not on the tape")
    if loss.data.size != 1:
        raise ShapeError("backward", [loss.shape], "loss must be scalar")
    params = list(params)
    for p in params:
        if p.node_id is None:
            raise TapeError("parameter is not on the tape")

    nodes = tape.nodes
    needed = {p.node_id for p in params}
    for nid in range(loss.node_id + 1):
        for t in nodes[nid].inputs:
            if t.node_id in needed:
                needed.add(nid)
                break

    grads = {loss.node_id: constant(np.ones(loss.shape))}
    with (nullcontext() if create_graph else tape.paused()):
        for nid in sorted(needed, reverse=True):
            node = nodes[nid]
            if node.kind == LEAF:
                continue
            g = grads.pop(nid, None)
            if g is None:
                continue
            need = [t.node_id in needed for t in node.inputs]
            if not any(need):
                continue
            _, vjp = _PRIMITIVES[node.kind]
            for t, ig in zip(node.inputs, vjp(node, g, need)):
                if ig is not None:
                    cur = grads.get(t.node_id)
                    grads[t.node_id] = ig if cur is None else add(cur, ig)

    by_param = {}
    for p in params:
        gp = grads.get(p.node_id)
        if gp is None:
            gp = scalar_scale(p, 0.0) if create_graph \
                else constant(np.zeros(p.shape))
        by_param[p] = gp
    return by_param


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Moment accumulators for one ordered parameter list: the parameters'
    ``shapes`` and one flat buffer each, ``m`` and ``v``, holding every
    parameter's entries in list order."""

    step_count: int = 0
    shapes: list = field(default=None)
    m: np.ndarray = field(default=None)
    v: np.ndarray = field(default=None)


def adam_step(params, grads: dict, state: AdamState, lr):
    """Adam update with bias correction, over all parameters at once.

    The gradients and parameters are concatenated into flat arrays, updated
    in one pass, and returned split into per-parameter views of one array,
    as detached constants that the caller adopts onto its tape before the
    next step, together with the mutated state. The held, parameter and
    gradient shapes are compared before the state is touched, so a step
    that raises ``ShapeError`` (or ``KeyError`` for a missing gradient)
    leaves the state as it was.
    """
    params = list(params)
    gs = [grads[p] for p in params]
    shapes = [p.shape for p in params]
    held = shapes if state.shapes is None else state.shapes
    if not held == shapes == [g.shape for g in gs]:
        raise ShapeError("adam-step", [held, shapes, [g.shape for g in gs]],
                         "held/parameter/gradient shapes differ")
    gd = np.concatenate([g.data.ravel() for g in gs])
    flat = np.concatenate([p.data.ravel() for p in params])
    if state.shapes is None:
        state.shapes = shapes
        state.m, state.v = np.zeros(gd.size), np.zeros(gd.size)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * gd
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * gd * gd
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    flat = flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    ends = np.cumsum([p.data.size for p in params])
    return [Tensor(part.reshape(shape)) for part, shape
            in zip(np.split(flat, ends[:-1]), shapes)], state


def sgd_virtual_step(params, grads: dict, lr):
    """One explicit gradient step that stays on the tape.

    The returned tensors are differentiable with respect to anything the
    gradients depend on; requires gradients built with ``create_graph``.
    """
    stepped = []
    for p in params:
        g = grads[p]
        if g.node_id is None:
            raise TapeError(
                "virtual step requires differentiable gradients "
                "(build them with create_graph)")
        stepped.append(sub(p, scalar_scale(g, lr)))
    return stepped


# ---------------------------------------------------------------------------
# finite differences (the independent oracle)
# ---------------------------------------------------------------------------

def finite_diff_gradient(f, x: Tensor, step=1e-4) -> Tensor:
    """Central-difference estimate of d f / d x, same shape as ``x``.

    ``f`` takes a detached Tensor and returns a float. Evaluations run with
    recording paused so probing never pollutes the active tape. A step that
    is not finite and positive raises ``ConfigError``.
    """
    require_real("step", step, zero_ok=False)
    flat = x.data.reshape(-1)
    out = np.empty_like(flat)
    tape = active_tape()
    ctx = tape.paused() if tape is not None else nullcontext()
    with ctx:
        for i in range(flat.size):
            hi = flat.copy()
            lo = flat.copy()
            hi[i] += step
            lo[i] -= step
            f_hi = float(f(constant(hi.reshape(x.shape))))
            f_lo = float(f(constant(lo.reshape(x.shape))))
            out[i] = (f_hi - f_lo) / (2.0 * step)
    return constant(out.reshape(x.shape))


def max_relative_error(got: Tensor, want: Tensor) -> float:
    """Max elementwise deviation, relative to max(1, |want|)."""
    num = float(np.max(np.abs(got.data - want.data))) if got.data.size else 0.0
    den = max(1.0, float(np.max(np.abs(want.data))) if want.data.size else 0.0)
    return num / den
