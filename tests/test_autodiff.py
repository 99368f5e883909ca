import gc
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse

from megagcl import autodiff as ad
from megagcl import graphdata as gd
from megagcl.errors import ConfigError, NumericError, ShapeError, TapeError

from conftest import DATA_ROOT, REPO_ROOT, count_calls


def scalar(loss_fn, x):
    """Evaluate a tensor-valued pipeline down to a float (for finite diff)."""
    return loss_fn(x).item()


# ---------------------------------------------------------------------------
# forward behaviour of the primitives
# ---------------------------------------------------------------------------

def test_matmul_identity(tape):
    eye = ad.constant(np.eye(2))
    m = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(eye, m)
    np.testing.assert_allclose(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_sigmoid_at_zero(tape):
    out = ad.sigmoid(ad.constant([0.0]))
    np.testing.assert_allclose(out.data, [0.5])


def test_weighted_aggregate_hand_summed(tape):
    # unit weights, targets [0,0,1] over rows [[1],[2],[3]] -> [[3],[3]]
    rows = ad.constant([[1.0], [2.0], [3.0]])
    pattern = ad.SparsePattern([0, 1, 2], [0, 0, 1], 2, 3)
    out = ad.weighted_aggregate(rows, ad.constant(np.ones((3, 1))), pattern)
    np.testing.assert_allclose(out.data, [[3.0], [3.0]])


def _aggregate_case(seed=0, n_in=6, n_out=5, n_edges=14, width=3):
    """Random edges with repeats, a self-referencing pair and an output row
    that no edge reaches, sorted by target, then source (CSR order)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_in, n_edges)
    dst = rng.integers(0, n_out - 1, n_edges)
    src[:2], dst[:2] = 2, 1  # one edge listed twice
    by_target = np.lexsort((src, dst))
    src, dst = src[by_target], dst[by_target]
    x = rng.standard_normal((n_in, width))
    w = rng.standard_normal((n_edges, 1))
    return x, w, src, dst, n_out


def test_weighted_aggregate_matches_add_at_oracle(tape):
    for seed in range(3):
        x, w, src, dst, n_out = _aggregate_case(seed)
        want = np.zeros((n_out, x.shape[1]))
        np.add.at(want, dst, w * x[src])
        pattern = ad.SparsePattern(src, dst, n_out, len(x))
        out = ad.weighted_aggregate(ad.constant(x), ad.constant(w), pattern)
        assert out.shape == (n_out, x.shape[1])
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(out.data[n_out - 1], 0.0)


def _gradient_case(seed, transposed, self_term=False):
    """An aggregation case whose input fits the product: with
    ``transposed`` the input has the pattern's ``n_out`` rows. With
    ``self_term`` the pattern is square, 5 by 5, as a self term needs."""
    x, w, src, dst, n_out = _aggregate_case(seed, n_in=5 if self_term else 6)
    pattern = ad.SparsePattern(src, dst, n_out, len(x))
    if transposed:
        x = np.random.default_rng(seed + 10).standard_normal((n_out, 3))
    return x, w, pattern


def _check_first_order(transposed):
    for self_term in (False, True):
        x0, w0, pattern = _gradient_case(1, transposed, self_term)
        n_rows = pattern.n_in if transposed else pattern.n_out
        c = ad.constant(np.random.default_rng(2).standard_normal((n_rows, 3)))
        x, w = ad.variable(x0), ad.variable(w0)

        def loss_of(tx, tw):
            agg = ad.weighted_aggregate(tx, tw, pattern, transposed, self_term)
            return ad.reduce_sum(ad.mul(ad.square(agg), c))

        grads = ad.backward(loss_of(x, w), [x, w])
        fd_x = ad.finite_diff_gradient(lambda t: loss_of(t, w).item(), x)
        fd_w = ad.finite_diff_gradient(lambda t: loss_of(x, t).item(), w)
        assert ad.max_relative_error(grads[x], fd_x) < 1e-6
        assert ad.max_relative_error(grads[w], fd_w) < 1e-6


def test_weighted_aggregate_gradients_match_finite_differences(tape):
    _check_first_order(transposed=False)


def test_transposed_aggregate_gradients_match_finite_differences(tape):
    _check_first_order(transposed=True)


def _check_second_order(transposed):
    # d/dx and d/dw of <c, d/dx f> + <cw, d/dw f> for f = sum(sigmoid(A_w x)),
    # the shape of the meta step's gradient through the encoder's gradient.
    # The x rule of either product is the other one, so each case runs both
    # w rules; d/dw f is an edge-dots node, so both of its rules run too.
    # With a self term, f = sum(sigmoid((A_w + I) x)) on a square pattern
    for self_term in (False, True):
        x0, w0, pattern = _gradient_case(3, transposed, self_term)
        rng = np.random.default_rng(4)
        c, cw = rng.standard_normal(x0.shape), rng.standard_normal(w0.shape)

        def outer_of(tx, tw):
            inner = ad.reduce_sum(ad.sigmoid(ad.weighted_aggregate(
                tx, tw, pattern, transposed, self_term)))
            grads = ad.backward(inner, [tx, tw], create_graph=True)
            return ad.add(ad.reduce_sum(ad.mul(grads[tx], ad.constant(c))),
                          ad.reduce_sum(ad.mul(grads[tw], ad.constant(cw))))

        def pipeline(x_data, w_data):
            probe = ad.Tape()
            with ad.use_tape(probe):
                return outer_of(probe.adopt(ad.Tensor(x_data.copy())),
                                probe.adopt(ad.Tensor(w_data.copy()))).item()

        x, w = ad.variable(x0), ad.variable(w0)
        grads = ad.backward(outer_of(x, w), [x, w])
        fd = {x: ad.finite_diff_gradient(lambda t: pipeline(t.data, w0), x),
              w: ad.finite_diff_gradient(lambda t: pipeline(x0, t.data), w)}
        for t in (x, w):
            assert float(np.max(np.abs(fd[t].data))) > 1e-3
            assert ad.max_relative_error(grads[t], fd[t]) < 1e-6


def test_weighted_aggregate_second_order_through_create_graph(tape):
    _check_second_order(transposed=False)


def test_transposed_aggregate_second_order_through_create_graph(tape):
    _check_second_order(transposed=True)


@pytest.mark.parametrize("transposed", [False, True])
def test_edge_dots_is_bitwise_the_gathered_products(mutag, transposed):
    # the transposed product's dots g[src[e]] . x[dst[e]] are the operands
    # swapped, with the same bits
    ds = gd.build_node_features(mutag, "node-label-onehot")
    batch = gd.batch_graphs(ds.records[:32])
    rng = np.random.default_rng(51)
    for pattern in (batch.adjacency, batch.pooling):
        ends = [(pattern.dst, pattern.n_out), (pattern.src, pattern.n_in)]
        (rows, n_g), (cols, n_x) = ends[::-1] if transposed else ends
        g, x = rng.standard_normal((n_g, 7)), rng.standard_normal((n_x, 7))
        tg, tx = ad.constant(g), ad.constant(x)
        out = ad.edge_dots(tx, tg, pattern) if transposed \
            else ad.edge_dots(tg, tx, pattern)
        assert out.shape == (len(rows), 1)
        assert out.data.tobytes() == \
            ((g[rows] * x[cols]) @ np.ones((7, 1))).tobytes()


@pytest.mark.parametrize("transposed", [False, True])
def test_self_term_is_bitwise_the_unfused_add(mutag, transposed):
    # the forward adds x after the neighbour sum, as the add node did, and
    # the x gradient A_w^T g + g is the add of g and A_w^T g, reordered
    ds = gd.build_node_features(mutag, "node-label-onehot")
    pattern = gd.batch_graphs(ds.records[:32]).adjacency
    rng = np.random.default_rng(53)
    arrays = [rng.standard_normal((pattern.n_in, 32)),
              rng.standard_normal((pattern.src.shape[0], 1))]
    weights = rng.standard_normal((pattern.n_out, 32))
    fused = _forward_and_gradients(
        lambda h, w: ad.weighted_aggregate(h, w, pattern, transposed,
                                           self_term=True), arrays, weights)
    assert fused == _forward_and_gradients(
        lambda h, w: ad.add(ad.weighted_aggregate(h, w, pattern, transposed),
                            h), arrays, weights)


def test_self_term_on_a_non_square_pattern_raises(tape, mutag):
    ds = gd.build_node_features(mutag, "node-label-onehot")
    pooling = gd.batch_graphs(ds.records[:32]).pooling
    ones = ad.constant(np.ones((pooling.src.shape[0], 1)))
    for transposed, rows in ((False, pooling.n_in), (True, pooling.n_out)):
        x = ad.constant(np.ones((rows, 2)))
        ad.weighted_aggregate(x, ones, pooling, transposed)  # fits without
        with pytest.raises(ShapeError, match="square pattern"):
            ad.weighted_aggregate(x, ones, pooling, transposed,
                                  self_term=True)


def test_edge_dots_rejects_bad_shapes(tape):
    pattern = ad.SparsePattern([0, 1, 2], [0, 1, 1], 2, 3)
    g, x = ad.constant(np.ones((2, 4))), ad.constant(np.ones((3, 4)))
    assert ad.edge_dots(g, x, pattern).shape == (3, 1)
    for bad_g, bad_x in ((x, x), (g, g), (g, ad.constant(np.ones((3, 5)))),
                         (x, g)):
        with pytest.raises(ShapeError, match="edge-dots"):
            ad.edge_dots(bad_g, bad_x, pattern)


def test_weighted_aggregate_rejects_bad_shapes_and_indices(tape):
    # indices are checked once, when the pattern is built; weight and input
    # shapes on every call
    x = ad.constant(np.ones((3, 2)))
    src, dst = [0, 1, 2], [0, 1, 1]
    pattern = ad.SparsePattern(src, dst, 2, 3)
    for w in (np.ones(3), np.ones((2, 1)), np.ones((3, 2))):
        with pytest.raises(ShapeError, match="weighted-aggregate"):
            ad.weighted_aggregate(x, ad.constant(w), pattern)
    w = ad.constant(np.ones((3, 1)))
    for rows in (2, 4):
        with pytest.raises(ShapeError, match="3 input rows"):
            ad.weighted_aggregate(ad.constant(np.ones((rows, 2))), w, pattern)
    # the transposed product takes the pattern's n_out rows, not n_in
    for rows in (1, 3):
        with pytest.raises(ShapeError, match="2 input rows"):
            ad.weighted_aggregate(ad.constant(np.ones((rows, 2))), w, pattern,
                                  transposed=True)
    out = ad.weighted_aggregate(ad.constant(np.ones((2, 2))), w, pattern,
                                transposed=True)
    assert out.shape == (3, 2)
    for bad_src, bad_dst in (([0, 1, 3], dst), ([0, -1, 2], dst),
                             (src, [0, 2, 1]), (src, [0, -1, 1])):
        with pytest.raises(ShapeError, match="out of range"):
            ad.SparsePattern(bad_src, bad_dst, 2, 3)
    for bad_src, bad_dst in (([0, 1], dst), (src, [[0, 1, 1]])):
        with pytest.raises(ShapeError, match="equal 1-D shapes"):
            ad.SparsePattern(bad_src, bad_dst, 2, 3)
    # targets that are not grouped are not in CSR order
    with pytest.raises(ShapeError, match="never decrease"):
        ad.SparsePattern(src, [1, 0, 1], 2, 3)


def _csr_oracle(x, w, src, dst, n_out):
    """The per-call construction the pattern replaces."""
    a = scipy.sparse.csr_matrix((w[:, 0], (dst, src)), shape=(n_out, len(x)))
    return a @ x


def _csr_entries_oracle(x, w, src, dst, n_out):
    """scipy's product over a matrix whose entry e is edge e, edges in CSR
    order: unlike ``_csr_oracle``'s construction, it does not sum an edge
    listed twice into one entry first, so it adds the pattern's terms in
    their order."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(dst,
                                                        minlength=n_out))])
    a = scipy.sparse.csr_matrix((w[:, 0], src, indptr), shape=(n_out, len(x)))
    return a @ x


def test_sparse_pattern_bitwise_equals_per_call_csr_on_mutag(tape, mutag):
    ds = gd.build_node_features(mutag, "node-label-onehot")
    batch = gd.batch_graphs(ds.records[:32])
    rng = np.random.default_rng(5)
    n, src, dst = batch.n_nodes, batch.adjacency.src, batch.adjacency.dst
    nodes, graphs = np.arange(n), batch.pooling.dst
    x = rng.standard_normal((n, 32))
    x_graphs = rng.standard_normal((batch.n_graphs, 32))
    w = rng.standard_normal((batch.n_edges, 1))
    w_nodes = rng.standard_normal((n, 1))
    # a transposed product must equal the one over the reversed edges
    cases = [(batch.adjacency, False, x, src, dst, n, w),
             (batch.adjacency, True, x, dst, src, n, w),
             (batch.pooling, False, x, nodes, graphs, batch.n_graphs,
              np.ones((n, 1))),
             (batch.pooling, True, x_graphs, graphs, nodes, n, w_nodes)]
    for pattern, transposed, xs, s, d, n_out, weights in cases:
        got = ad.weighted_aggregate(ad.constant(xs), ad.constant(weights),
                                    pattern, transposed)
        np.testing.assert_array_equal(got.data,
                                      _csr_oracle(xs, weights, s, d, n_out))


def test_sparse_pattern_serves_many_weight_vectors(tape):
    x, w1, src, dst, n_out = _aggregate_case(6)
    w2 = np.random.default_rng(7).standard_normal(w1.shape)
    pattern = ad.SparsePattern(src, dst, n_out, len(x))
    first = ad.weighted_aggregate(ad.constant(x), ad.constant(w1), pattern)
    kept = first.data.copy()
    second = ad.weighted_aggregate(ad.constant(x), ad.constant(w2), pattern)
    np.testing.assert_array_equal(first.data, kept)
    for out, w in ((first, w1), (second, w2)):
        want = _csr_oracle(x, w, src, dst, n_out)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    assert not np.allclose(first.data, second.data)


@pytest.mark.parametrize("transposed", [False, True])
def test_threads_with_their_own_tapes_aggregate_their_own_weights(
        monkeypatch, transposed):
    # each thread's kernel call waits until the other's has begun, so both
    # calls have taken their weights before either product is made
    x, w1, src, dst, n_out = _aggregate_case(12)
    w2 = np.random.default_rng(13).standard_normal(w1.shape)
    pattern = ad.SparsePattern(src, dst, n_out, len(x))
    h = x[:n_out] if transposed else x

    def aggregate(w):
        with ad.use_tape(ad.Tape()):
            return ad.weighted_aggregate(ad.constant(h), ad.variable(w),
                                         pattern, transposed).data

    want = [aggregate(w) for w in (w1, w2)]
    kernels, barrier = ad._sparsetools, threading.Barrier(2, timeout=10)

    def waiting(name):
        def kernel(*args):
            barrier.wait()
            getattr(kernels, name)(*args)
        return kernel

    monkeypatch.setattr(ad, "_sparsetools", SimpleNamespace(
        csr_matvecs=waiting("csr_matvecs"),
        csc_matvecs=waiting("csc_matvecs")))
    with ThreadPoolExecutor(2) as threads:
        got = [f.result() for f in [threads.submit(aggregate, w)
                                    for w in (w1, w2)]]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert not np.array_equal(*want)


def test_deleting_a_batch_frees_its_patterns_without_gc(mutag):
    gc.disable()
    try:
        ds = gd.build_node_features(mutag, "node-label-onehot")
        batch = gd.batch_graphs(ds.records[:8])
        adjacency, pooling = batch.adjacency, batch.pooling
        ones = ad.constant(np.ones((batch.n_edges, 1)))
        ad.weighted_aggregate(ad.constant(np.ones((batch.n_nodes, 1))), ones,
                              adjacency, transposed=True)
        # a pattern takes no weak reference; its arrays are freed with it
        refs = [weakref.ref(a) for p in (adjacency, pooling)
                for a in (p.indptr, p.src)]
        del batch, adjacency, pooling
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


# imports the package's modules, then scipy's sparse package, in a fresh
# process; prints which heavy scipy packages the first imports loaded and
# whether scipy's products equal the aggregation's, bit for bit
_LIGHT_IMPORTS = """
import json, sys
import numpy as np
import megagcl.training, megagcl.evaluation, megagcl.cli
from megagcl import autodiff as ad, graphdata as gd
loaded = [m for m in ("scipy.sparse", "scipy.stats") if m in sys.modules]
import scipy.sparse
ds = gd.build_node_features(gd.parse_tu_dataset(sys.argv[1], "MUTAG"),
                            "node-label-onehot")
batch = gd.batch_graphs(ds.records[:32])
rng = np.random.default_rng(11)
equal = []
for pattern in (batch.adjacency, batch.pooling):
    w = rng.standard_normal((pattern.src.size, 1))
    a = scipy.sparse.csr_matrix((w[:, 0], (pattern.dst, pattern.src)),
                                shape=(pattern.n_out, pattern.n_in))
    for width in (1, 32):
        x = rng.standard_normal((pattern.n_in, width))
        g = rng.standard_normal((pattern.n_out, width))
        got = ad.weighted_aggregate(ad.constant(x), ad.constant(w), pattern)
        got_t = ad.weighted_aggregate(ad.constant(g), ad.constant(w), pattern,
                                      transposed=True)
        equal += [np.array_equal(got.data, a @ x),
                  np.array_equal(got_t.data, a.T @ g)]
print(json.dumps({"loaded": loaded, "equal": equal,
                  "has_sparsetools": hasattr(scipy.sparse, "_sparsetools")}))
"""


def test_the_package_imports_no_scipy_sparse_or_stats_and_matches_it_later():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _LIGHT_IMPORTS, str(DATA_ROOT)],
        capture_output=True, text=True, check=True, timeout=120, env=env)
    seen = json.loads(done.stdout)
    assert seen["loaded"] == []
    assert seen["equal"] == [True] * 8
    assert seen["has_sparsetools"]
    # imported the other way round, the package takes scipy's module
    done = subprocess.run(
        [sys.executable, "-c", "import scipy.sparse; "
         "from megagcl import autodiff as ad; "
         "print(ad._sparsetools is scipy.sparse._sparsetools)"],
        capture_output=True, text=True, check=True, timeout=120, env=env)
    assert done.stdout.strip() == "True"


def test_importing_without_scipys_kernels_names_the_folder(tmp_path):
    # a scipy package with no sparse kernels first on the path
    (tmp_path / "scipy" / "sparse").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    done = subprocess.run(
        [sys.executable, "-c", "import megagcl.autodiff"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(tmp_path), str(REPO_ROOT / "src")])})
    assert done.returncode != 0
    assert "ImportError: scipy's compiled sparse kernels" in done.stderr
    assert str(tmp_path / "scipy" / "sparse") in done.stderr


def test_shape_mismatch_names_kind_and_shapes(tape):
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((4, 5)))
    with pytest.raises(ShapeError) as exc:
        ad.matmul(a, b)
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_unknown_kind_rejected(tape):
    with pytest.raises(TapeError):
        ad.primitive_forward("convolve", [ad.constant([1.0])])


def test_constants_are_not_recorded(tape):
    ad.add(ad.constant([1.0]), ad.constant([2.0]))
    assert len(tape.nodes) == 0
    x = ad.variable([1.0])
    ad.add(x, ad.constant([2.0]))
    assert len(tape.nodes) == 2  # leaf + add


@pytest.mark.parametrize("data,shape", [
    (3, (1,)), (np.float32(2.5), (1,)), ([1, 2], (2,)),
    ([[1, 0], [0, 1]], (2, 2)), (np.arange(3), (3,))])
def test_constant_coerces_to_float64_of_at_least_one_dimension(data, shape):
    for make in (ad.constant, ad.variable):
        with ad.use_tape(ad.Tape()):
            t = make(data)
        assert t.data.dtype == np.float64 and t.shape == shape
        np.testing.assert_array_equal(t.data.reshape(-1),
                                      np.ravel(np.asarray(data, dtype=float)))


def test_l2_normalize_zero_row_names_row(tape):
    x = ad.constant([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericError) as exc:
        ad.l2_normalize_rows(x)
    assert "row 1" in str(exc.value)


# ---------------------------------------------------------------------------
# forward kernels split into row runs across threads
# ---------------------------------------------------------------------------

def _dense_chain_loss():
    """A two-layer ``dense`` chain's summed squares on the active tape, and
    its inputs and parameters."""
    rng = np.random.default_rng(5)
    chain = [ad.variable(rng.standard_normal(s))
             for s in ((40, 7), (7, 9), (1, 9), (9, 5), (1, 5))]
    x, w1, b1, w2, b2 = chain
    return ad.reduce_sum(ad.square(
        ad.dense(ad.dense(x, w1, b1, True), w2, b2))), chain


def split_case_outputs():
    """Bytes of ``dense`` and ``weighted_aggregate`` outputs that span
    several 8-row blocks when ``DENSE_BLOCK_BYTES`` is 64: dense with relu
    on and off, 7-wide inputs and every remainder from 0 to 7 rows; the
    aggregation with and without the self term, over a pooling pattern, at
    width 1 and over an edgeless batch. The products are far too small for
    OpenBLAS to thread, so its thread count cannot move their bits. Then
    the gradients of a two-layer ``dense`` chain, whose layers hand their
    parameter products to the pool when ``DEFER_BYTES`` and a pool allow."""
    rng = np.random.default_rng(31)
    outputs = []
    for n, k, relu in [(16, 5, True), (23, 7, False), (41, 7, True),
                       (51, 7, False), (60, 17, False), (66, 3, True),
                       (77, 7, False), (94, 17, True)]:
        x, w, b = (ad.constant(rng.standard_normal(s))
                   for s in ((n, k), (k, 9), (1, 9)))
        outputs.append(ad.dense(x, w, b, relu).data)
    n_nodes, n_graphs = 70, 20
    src = rng.integers(0, n_nodes, 300)
    dst = rng.integers(0, n_nodes, 300)
    by_target = np.lexsort((src, dst))
    adjacency = ad.SparsePattern(src[by_target], dst[by_target], n_nodes,
                                 n_nodes)
    graph_of = np.sort(rng.integers(0, n_graphs, n_nodes))
    pooling = ad.SparsePattern(np.arange(n_nodes), graph_of, n_graphs,
                               n_nodes)
    edgeless = ad.SparsePattern([], [], n_nodes, n_nodes)
    for pattern, width, self_term in [
            (adjacency, 3, True), (adjacency, 3, False), (adjacency, 1, True),
            (adjacency, 1, False), (pooling, 3, False), (pooling, 1, False),
            (edgeless, 3, True), (edgeless, 1, False)]:
        x = ad.constant(rng.standard_normal((n_nodes, width)))
        w = ad.constant(rng.standard_normal((pattern.src.size, 1)))
        outputs.append(ad.weighted_aggregate(x, w, pattern,
                                             self_term=self_term).data)
    with ad.use_tape(ad.Tape()):
        loss, chain = _dense_chain_loss()
        grads = ad.backward(loss, chain)
    outputs.extend(grads[t].data for t in chain)
    return [out.tobytes() for out in outputs]


# split_case_outputs in a process that may run on one CPU only, so its
# autodiff has no pool, makes every call in one run and every gradient
# product inline
_POOLLESS = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from megagcl import autodiff as ad
assert ad._POOL is None
ad.DENSE_BLOCK_BYTES = 64
sys.path.insert(0, sys.argv[1])
from test_autodiff import split_case_outputs
print(json.dumps([out.hex() for out in split_case_outputs()]))
"""


def test_row_runs_are_bitwise_one_run_and_a_process_without_pool(
        monkeypatch, pool):
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs os.sched_setaffinity")
    monkeypatch.setattr(ad, "DENSE_BLOCK_BYTES", 64)
    runs = count_calls(monkeypatch, ad, "_in_runs")
    handed = count_calls(monkeypatch, ad, "_Task")
    monkeypatch.setattr(ad, "SPLIT_BYTES", 0)
    monkeypatch.setattr(ad, "DEFER_BYTES", 0)
    split = split_case_outputs()
    assert all(n_runs > 1 for _, n_runs in runs)
    assert [fn for fn, *_ in handed if fn.__name__ != "run"] == \
        [ad._f_matmul, ad._f_sum_cols] * 2
    runs.clear()
    handed.clear()
    monkeypatch.setattr(ad, "SPLIT_BYTES", 1 << 60)
    monkeypatch.setattr(ad, "DEFER_BYTES", 1 << 60)
    assert split_case_outputs() == split
    assert {n_runs for _, n_runs in runs} == {1} and not handed
    done = subprocess.run(
        [sys.executable, "-c", _POOLLESS, str(REPO_ROOT / "tests")],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert [bytes.fromhex(out) for out in json.loads(done.stdout)] == split


# split_case_outputs with every call large enough to split, in a process
# that imports autodiff on two CPUs or more and then narrows itself to one:
# the pool reads the affinity as it starts, so it never starts
_NARROWED = """
import json, os, sys
from megagcl import autodiff as ad
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
ad.DENSE_BLOCK_BYTES = 64
ad.SPLIT_BYTES = ad.DEFER_BYTES = 0
in_runs, runs = ad._in_runs, []
ad._in_runs = lambda run, n_runs: (runs.append(n_runs), in_runs(run, n_runs))
sys.path.insert(0, sys.argv[1])
from test_autodiff import split_case_outputs
outputs = split_case_outputs()
print(json.dumps({"pool": ad._POOL is not None, "runs": sorted(set(runs)),
                  "outputs": [out.hex() for out in outputs]}))
"""


def test_the_pool_starts_on_first_use_sized_by_the_affinity_then(
        monkeypatch):
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        pytest.skip("needs two CPUs or more")
    monkeypatch.setattr(ad, "DENSE_BLOCK_BYTES", 64)
    want = split_case_outputs()
    done = subprocess.run(
        [sys.executable, "-c", _NARROWED, str(REPO_ROOT / "tests")],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    seen = json.loads(done.stdout)
    assert not seen["pool"] and seen["runs"] == [1]
    assert [bytes.fromhex(out) for out in seen["outputs"]] == want


def test_width_one_aggregation_is_bitwise_scipys_vector_product(
        monkeypatch, pool):
    # scipy's csr @ x takes its one-column kernel at width 1; every split
    # and unsplit run here takes the many-column one
    monkeypatch.setattr(ad, "DENSE_BLOCK_BYTES", 64)
    x, w, src, dst, n_out = _aggregate_case(9, n_in=40, n_out=40,
                                            n_edges=400, width=1)
    pattern = ad.SparsePattern(src, dst, n_out, len(x))
    for split_bytes in (0, 1 << 60):
        monkeypatch.setattr(ad, "SPLIT_BYTES", split_bytes)
        got = ad.weighted_aggregate(ad.constant(x), ad.constant(w), pattern)
        np.testing.assert_array_equal(
            got.data, _csr_entries_oracle(x, w, src, dst, n_out))


def test_a_run_that_raises_surfaces_once_no_run_is_busy(monkeypatch, pool):
    # the first kernel call raises while the other thread is mid-run
    monkeypatch.setattr(ad, "DENSE_BLOCK_BYTES", 64)
    monkeypatch.setattr(ad, "SPLIT_BYTES", 0)
    lock, seen = threading.Lock(), dict(calls=0, busy=0, raised=None)
    kernel = ad._sparsetools.csr_matvecs

    def slow_kernel(*args):
        with lock:
            seen["calls"] += 1
            seen["busy"] += 1
            fail = seen["calls"] == seen.get("fail_at")
        try:
            time.sleep(0.01 if fail else 0.05)
            if fail:
                seen["raised"] = RuntimeError("kernel failed")
                raise seen["raised"]
            kernel(*args)
        finally:
            with lock:
                seen["busy"] -= 1

    monkeypatch.setattr(ad, "_sparsetools",
                        SimpleNamespace(csr_matvecs=slow_kernel))
    x, w, src, dst, n_out = _aggregate_case(8, n_in=40, n_out=40, n_edges=90)
    pattern = ad.SparsePattern(src, dst, n_out, len(x))
    got = ad.weighted_aggregate(ad.constant(x), ad.constant(w), pattern)
    assert seen["calls"] > 1 and seen["busy"] == 0
    np.testing.assert_array_equal(got.data,
                                  _csr_entries_oracle(x, w, src, dst, n_out))
    seen.update(calls=0, fail_at=1)
    with pytest.raises(RuntimeError, match="kernel failed") as caught:
        ad.weighted_aggregate(ad.constant(x), ad.constant(w), pattern)
    assert caught.value is seen["raised"] and seen["busy"] == 0


def test_many_threads_switching_often_make_every_run_once(monkeypatch):
    # four workers and the calling thread switching every microsecond: a
    # run lost leaves its rows zero, a run made twice adds its products into
    # them twice, and a gradient read unfinished fails or changes bits
    executor = ThreadPoolExecutor(4)
    monkeypatch.setattr(ad, "_POOL", executor)
    monkeypatch.setattr(ad, "_THREADS", 5)
    monkeypatch.setattr(ad, "DENSE_BLOCK_BYTES", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(ad, "SPLIT_BYTES", 1 << 60)
        monkeypatch.setattr(ad, "DEFER_BYTES", 1 << 60)
        want = split_case_outputs()
        monkeypatch.setattr(ad, "SPLIT_BYTES", 0)
        monkeypatch.setattr(ad, "DEFER_BYTES", 0)
        deadline = time.monotonic() + 2.0
        for _ in range(20):
            assert split_case_outputs() == want
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)
        executor.shutdown()


def test_a_helper_that_never_started_keeps_no_array_alive(monkeypatch):
    # the one worker is held, so the split call's helper waits in the pool's
    # queue and is cancelled once the calling thread has made every run
    executor, gate = ThreadPoolExecutor(1), threading.Event()
    executor.submit(gate.wait, 60)
    monkeypatch.setattr(ad, "_POOL", executor)
    monkeypatch.setattr(ad, "_THREADS", 2)
    monkeypatch.setattr(ad, "DENSE_BLOCK_BYTES", 64)
    monkeypatch.setattr(ad, "SPLIT_BYTES", 0)
    try:
        rng = np.random.default_rng(3)
        x, w, b = (ad.constant(rng.standard_normal(s))
                   for s in ((40, 7), (7, 9), (1, 9)))
        in_runs, runs = ad._in_runs, []
        monkeypatch.setattr(ad, "_in_runs", lambda run, n_runs: (
            runs.append(n_runs), in_runs(run, n_runs)))
        inputs = weakref.ref(x.data)
        ad.dense(x, w, b)
        del x
        assert len(runs) == 1 < runs[0] and inputs() is None
    finally:
        gate.set()
        executor.shutdown()


def test_a_join_makes_the_handed_products_no_worker_has_started(
        tape, monkeypatch):
    # the pool's one worker is held, so every parameter product dense's
    # rule hands over is still pending when backward reads it
    executor, gate = ThreadPoolExecutor(1), threading.Event()
    held = executor.submit(gate.wait, 5)
    monkeypatch.setattr(ad, "_POOL", executor)
    monkeypatch.setattr(ad, "_THREADS", 2)
    try:
        loss, chain = _dense_chain_loss()
        monkeypatch.setattr(ad, "DEFER_BYTES", 1 << 60)
        inline = ad.backward(loss, chain)
        threads = []
        for name in ("_f_matmul", "_f_sum_cols"):
            def on_a_thread(*args, product=getattr(ad, name)):
                threads.append(threading.get_ident())
                return product(*args)
            monkeypatch.setattr(ad, name, on_a_thread)
        monkeypatch.setattr(ad, "DEFER_BYTES", 0)
        grads = ad.backward(loss, chain)
        assert not held.done()
        assert threads == [threading.get_ident()] * 4
        assert [grads[t].data.tobytes() for t in chain] == \
            [inline[t].data.tobytes() for t in chain]
    finally:
        gate.set()
        executor.shutdown()


def test_a_handed_product_that_raises_surfaces_from_backward(
        tape, monkeypatch, pool):
    monkeypatch.setattr(ad, "DEFER_BYTES", 0)
    lock, seen = threading.Lock(), dict(calls=0, busy=0, raised=None)
    product = ad._f_matmul

    def failing_product(*args):
        with lock:
            seen["calls"] += 1
            seen["busy"] += 1
            first = seen["calls"] == 1
        try:
            time.sleep(0.02)
            if first:
                seen["raised"] = RuntimeError("product failed")
                raise seen["raised"]
            return product(*args)
        finally:
            with lock:
                seen["busy"] -= 1

    monkeypatch.setattr(ad, "_f_matmul", failing_product)
    loss, chain = _dense_chain_loss()
    with pytest.raises(RuntimeError, match="product failed") as caught:
        ad.backward(loss, chain)
    assert caught.value is seen["raised"] and seen["busy"] == 0


def test_backward_that_raises_returns_once_no_handed_product_runs(
        tape, monkeypatch, pool):
    # the calling thread's g @ w.T raises once the layer's x.T @ g runs on
    # the pool, with its bias sums handed over after it
    monkeypatch.setattr(ad, "DEFER_BYTES", 0)
    lock, seen, started = threading.Lock(), dict(busy=0), threading.Event()
    product = ad._f_matmul

    def slow_product(*args):
        with lock:
            seen["busy"] += 1
        started.set()
        try:
            time.sleep(0.05)
            return product(*args)
        finally:
            with lock:
                seen["busy"] -= 1

    def failing_matmul(*args, **kwargs):
        assert started.wait(10)
        raise RuntimeError("input gradient failed")

    loss, chain = _dense_chain_loss()
    monkeypatch.setattr(ad, "_f_matmul", slow_product)
    monkeypatch.setattr(ad, "matmul", failing_matmul)
    with pytest.raises(RuntimeError, match="input gradient failed"):
        ad.backward(loss, chain)
    assert seen["busy"] == 0


# ---------------------------------------------------------------------------
# backward: first order
# ---------------------------------------------------------------------------

def test_square_gradient(tape):
    x = ad.variable([3.0])
    loss = ad.square(x)
    grads = ad.backward(loss, [x])
    np.testing.assert_allclose(grads[x].data, [6.0])


def test_detach_keeps_data_blocks_gradient(tape):
    x = ad.variable([2.0, -1.0])
    d = ad.detach(x)
    np.testing.assert_allclose(d.data, x.data)
    assert d.node_id is None
    loss = ad.reduce_sum(ad.square(d))
    # loss is entirely constant: nothing on tape past the leaf
    assert loss.node_id is None


def test_detach_inside_pipeline_gives_zero_grad(tape):
    x = ad.variable([2.0])
    loss = ad.reduce_sum(ad.mul(x, ad.detach(ad.square(x))))
    grads = ad.backward(loss, [x])
    # only the live factor contributes: d/dx (x * const 4) = 4
    np.testing.assert_allclose(grads[x].data, [4.0])


def test_loss_must_be_scalar_and_on_tape(tape):
    x = ad.variable(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        ad.backward(ad.square(x), [x])
    with pytest.raises(TapeError):
        ad.backward(ad.constant([1.0]), [x])
    with pytest.raises(TapeError):
        ad.backward(ad.reduce_sum(ad.square(x)), [ad.constant([1.0])])


def _random_inputs(rng, shape):
    # keep clear of relu's kink: nudge anything near zero
    x = rng.standard_normal(shape)
    x = np.where(np.abs(x) < 1e-2, x + np.sign(x + 0.5) * 2e-2, x)
    return x


UNARY_CASES = [
    ("relu", ad.relu, (4, 3), None),
    ("sigmoid", ad.sigmoid, (4, 3), None),
    ("exp", ad.exp, (4, 3), None),
    ("log", ad.log, (4, 3), "positive"),
    ("square", ad.square, (4, 3), None),
    ("sqrt", ad.sqrt, (4, 3), "positive"),
    ("reciprocal", ad.reciprocal, (4, 3), "positive"),
    ("transpose", ad.transpose, (3, 4), None),
    ("l2-normalize-rows", ad.l2_normalize_rows, (3, 4), None),
    ("sum", ad.reduce_sum, (4, 3), None),
    ("mean", ad.reduce_mean, (4, 3), None),
    ("scalar-scale", lambda x: ad.scalar_scale(x, -1.7), (4, 3), None),
    ("sum-rows", ad.sum_rows, (4, 3), None),
    ("sum-cols", ad.sum_cols, (4, 3), None),
    ("broadcast", lambda x: ad.broadcast(x, (4, 3)), (4, 1), None),
    ("broadcast-row", lambda x: ad.broadcast(x, (4, 3)), (1, 3), None),
    ("broadcast-scalar", lambda x: ad.broadcast(x, (4, 3)), (1,), None),
    ("diagonal", ad.diagonal, (4, 4), None),
    ("embed-diagonal", ad.embed_diagonal, (4, 1), None),
]


@pytest.mark.parametrize("name,op,shape,domain", UNARY_CASES,
                         ids=[c[0] for c in UNARY_CASES])
def test_unary_gradients_match_finite_differences(tape, name, op, shape, domain):
    rng = np.random.default_rng(hash(name) % 2**32)
    data = _random_inputs(rng, shape)
    if domain == "positive":
        data = np.abs(data) + 0.5
    x = ad.variable(data)
    # mix rows so every op ends in a scalar through nontrivial weights
    w = ad.constant(rng.standard_normal((np.prod(op(ad.constant(data)).shape), 1)))

    def loss_of(t):
        flat = op(t)
        col = ad.matmul(flat, ad.constant(np.ones((flat.shape[1], 1)))) \
            if flat.data.ndim == 2 else flat
        total = ad.reduce_sum(ad.mul(col, ad.constant(
            np.arange(1.0, col.data.size + 1).reshape(col.shape))))
        return total

    loss = loss_of(x)
    grads = ad.backward(loss, [x])
    fd = ad.finite_diff_gradient(lambda t: loss_of(t).item(), x)
    assert ad.max_relative_error(grads[x], fd) < 1e-4


def _flagged_matmul(ta, tb):
    return lambda a, b: ad.matmul(a, b, ta=ta, tb=tb)


# (ta, tb) and the shapes of a and b for a (3, 2) product
MATMUL_FLAG_CASES = [(False, False, (3, 4), (4, 2)),
                     (True, False, (4, 3), (4, 2)),
                     (False, True, (3, 4), (2, 4)),
                     (True, True, (4, 3), (2, 4))]

BINARY_CASES = [
    ("add", ad.add, (3, 4), (3, 4)),
    ("add-row", ad.add, (3, 4), (1, 4)),
    ("sub", ad.sub, (3, 4), (3, 4)),
    ("mul", ad.mul, (3, 4), (3, 4)),
    ("mul-col", ad.mul, (3, 4), (3, 1)),
    ("mul-scalar", ad.mul, (3, 4), (1,)),
    ("matmul", ad.matmul, (3, 4), (4, 2)),
] + [(f"matmul-ta{int(ta)}-tb{int(tb)}", _flagged_matmul(ta, tb), sa, sb)
     for ta, tb, sa, sb in MATMUL_FLAG_CASES]


def test_binary_gradients_match_finite_differences(tape):
    rng = np.random.default_rng(7)
    for name, op, sa, sb in BINARY_CASES:
        a = ad.variable(rng.standard_normal(sa))
        b = ad.variable(rng.standard_normal(sb))
        weights = ad.constant(rng.standard_normal(op(a, b).shape))

        def loss_of(ta, tb):
            return ad.reduce_sum(ad.mul(op(ta, tb), weights))

        grads = ad.backward(loss_of(a, b), [a, b])
        fd_a = ad.finite_diff_gradient(lambda t: loss_of(t, b).item(), a)
        fd_b = ad.finite_diff_gradient(lambda t: loss_of(a, t).item(), b)
        assert ad.max_relative_error(grads[a], fd_a) < 1e-4, name
        assert ad.max_relative_error(grads[b], fd_b) < 1e-4, name


# relu and the shapes of x, w and b; the last two are the augmenter's
# second layer, an (E, 1) score with a (1, 1) bias
DENSE_CASES = [
    ("dense", False, (5, 4), (4, 3), (1, 3)),
    ("dense-relu", True, (5, 4), (4, 3), (1, 3)),
    ("dense-to-column", False, (6, 3), (3, 1), (1, 1)),
    ("dense-relu-to-column", True, (6, 3), (3, 1), (1, 1)),
]


@pytest.mark.parametrize("name,relu,sx,sw,sb", DENSE_CASES,
                         ids=[c[0] for c in DENSE_CASES])
def test_dense_gradients_match_finite_differences(tape, name, relu, sx, sw,
                                                  sb):
    rng = np.random.default_rng(37)
    x, w, b = (ad.variable(rng.standard_normal(s)) for s in (sx, sw, sb))
    weights = ad.constant(rng.standard_normal((sx[0], sw[1])))
    pre = x.data @ w.data + b.data
    assert np.min(np.abs(pre)) > 1e-3  # clear of relu's kink
    if relu:
        assert np.any(pre < 0) and np.any(pre > 0)

    def loss_of(tx, tw, tb):
        return ad.reduce_sum(ad.mul(ad.dense(tx, tw, tb, relu=relu),
                                    weights))

    grads = ad.backward(loss_of(x, w, b), [x, w, b])
    for i, t in enumerate((x, w, b)):
        def value_with(probe, i=i):
            args = [x, w, b]
            args[i] = probe
            return loss_of(*args).item()

        fd = ad.finite_diff_gradient(value_with, t)
        assert ad.max_relative_error(grads[t], fd) < 1e-6, (name, i)


def test_dense_second_order_through_create_graph(tape):
    # d/d(w1, b1, w2) of <c, d/dx sum(sigmoid(mlp(x)))>: the create_graph
    # gradient of x runs both dense rules, the relu mask's mul included
    rng = np.random.default_rng(17)
    x0 = rng.standard_normal((5, 4))
    p0 = [rng.standard_normal(s) for s in ((4, 3), (1, 3), (3, 2))]
    b2 = ad.constant(rng.standard_normal((1, 2)))
    c = ad.constant(rng.standard_normal((5, 4)))

    def outer_of(tx, w1, b1, w2):
        h = ad.dense(ad.dense(tx, w1, b1, relu=True), w2, b2)
        gx = ad.backward(ad.reduce_sum(ad.sigmoid(h)), [tx],
                         create_graph=True)[tx]
        return ad.reduce_sum(ad.mul(gx, c))

    params = [ad.variable(p) for p in p0]
    grads = ad.backward(outer_of(ad.variable(x0), *params), params)
    for i, t in enumerate(params):
        def pipeline(probe, i=i):
            with ad.use_tape(ad.Tape()) as inner:
                args = [inner.adopt(ad.Tensor(p.copy())) for p in p0]
                args[i] = ad.constant(probe.data)
                return outer_of(inner.adopt(ad.Tensor(x0.copy())),
                                *args).item()

        fd = ad.finite_diff_gradient(pipeline, t)
        assert float(np.max(np.abs(fd.data))) > 1e-3
        assert ad.max_relative_error(grads[t], fd) < 1e-6, i


def test_dense_rejects_bad_shapes(tape):
    # an inner dimension that differs, a bias of the wrong width, a bias
    # per row, a 1-D bias and a 1-D input
    for sx, sw, sb in (((5, 4), (3, 2), (1, 2)), ((5, 4), (4, 2), (1, 3)),
                       ((5, 4), (4, 2), (5, 2)), ((5, 4), (4, 2), (2,)),
                       ((4,), (4, 2), (1, 2))):
        with pytest.raises(ShapeError, match="dense"):
            ad.dense(_ones(*sx), _ones(*sw), _ones(*sb), relu=True)


@pytest.mark.parametrize("create_graph", [False, True])
def test_dense_leaves_its_inputs_untouched(tape, create_graph):
    # the bias and relu write into the product's array, never an input's
    rng = np.random.default_rng(23)
    x, w1, b1, w2, b2 = (ad.variable(rng.standard_normal(s)) for s in
                         ((5, 4), (4, 3), (1, 3), (3, 2), (1, 2)))
    inputs = [x, w1, b1, w2, b2]
    before = [t.data.tobytes() for t in inputs]
    h = ad.dense(x, w1, b1, relu=True)
    assert np.any(h.data == 0.0) and np.any(h.data > 0.0)
    hidden = h.data.tobytes()
    out = ad.dense(h, w2, b2)
    ad.backward(ad.reduce_sum(ad.square(out)), inputs,
                create_graph=create_graph)
    assert [t.data.tobytes() for t in inputs] == before
    assert h.data.tobytes() == hidden


def _unfused_dense(x, w, b, relu=False):
    out = ad.add(ad.matmul(x, w), b)
    return ad.relu(out) if relu else out


# rows of x, and whether dense takes x as a transposed view
DENSE_BLOCK_CASES = [(n, False) for n in (1, 8, 15, 16, 17, 33, 40)] + [
    (40, True)]


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize(
    "n,transposed", DENSE_BLOCK_CASES,
    ids=[f"{n}-transposed" if t else str(n) for n, t in DENSE_BLOCK_CASES])
def test_dense_is_bitwise_the_unfused_chain(monkeypatch, n, transposed,
                                            relu):
    # the (n, 9) output in 8-row blocks: the rows sit on each side of one
    # block and of two, where the remainder joins the last block. At
    # (n, 17) @ (17, 9) a different kernel path would show in the bits
    monkeypatch.setattr(ad, "DENSE_BLOCK_BYTES", 8 * 9 * 8)
    rng = np.random.default_rng(29)
    arrays = [rng.standard_normal(s) for s in
              ((17, n) if transposed else (n, 17), (17, 9), (1, 9))]
    weights = rng.standard_normal((n, 9))

    def rows_of(x):
        return ad.transpose(x) if transposed else x

    fused = _forward_and_gradients(
        lambda x, w, b: ad.dense(rows_of(x), w, b, relu=relu), arrays,
        weights)
    assert fused == _forward_and_gradients(
        lambda x, w, b: _unfused_dense(rows_of(x), w, b, relu), arrays,
        weights)


def _forward_and_gradients(op, arrays, weights):
    """Bytes of ``op``'s value and of the first-order and ``create_graph``
    gradients of sum(op(...)^2 * weights) with respect to every input."""
    out = []
    for create_graph in (False, True):
        tape = ad.Tape()
        with ad.use_tape(tape):
            xs = [ad.variable(a.copy()) for a in arrays]
            value = op(*xs)
            loss = ad.reduce_sum(ad.mul(ad.square(value),
                                        ad.constant(weights)))
            grads = ad.backward(loss, xs, create_graph=create_graph)
            assert all((grads[x].node_id is not None) == create_graph
                       for x in xs)
            out += [value.data.tobytes()] + [grads[x].data.tobytes()
                                             for x in xs]
    return out


@pytest.mark.parametrize("ta,tb", [c[:2] for c in MATMUL_FLAG_CASES])
def test_flagged_matmul_is_bitwise_the_explicit_transpose(ta, tb):
    # both forms hand BLAS the same transposed view of a flagged operand,
    # so they run the same product and match bit for bit
    m, k, n = 33, 17, 9
    rng = np.random.default_rng(41)
    a = rng.standard_normal((k, m) if ta else (m, k))
    b = rng.standard_normal((n, k) if tb else (k, n))
    weights = rng.standard_normal((m, n))

    def explicit(x, y):
        return ad.matmul(ad.transpose(x) if ta else x,
                         ad.transpose(y) if tb else y)

    assert _forward_and_gradients(_flagged_matmul(ta, tb), [a, b],
                                  weights) == \
        _forward_and_gradients(explicit, [a, b], weights)


def _ones(*shape):
    return ad.constant(np.ones(shape))


def _eye(n):
    return ad.constant(np.eye(n))


# each primitive and the ones-matmul or mask form it replaced. Inputs are
# positive, so a mask writes +0.0 off the diagonal, as the primitives do;
# a negative entry would leave a -0.0 there, equal in value but not in bits
REDUCTION_FORMS = [
    ("sum-rows", ad.sum_rows, lambda x: ad.matmul(x, _ones(3, 1)), (4, 3)),
    ("sum-cols", ad.sum_cols, lambda x: ad.matmul(_ones(1, 4), x), (4, 3)),
    ("broadcast-col", lambda x: ad.broadcast(x, (4, 3)),
     lambda x: ad.matmul(x, _ones(1, 3)), (4, 1)),
    ("broadcast-row", lambda x: ad.broadcast(x, (4, 3)),
     lambda x: ad.matmul(_ones(4, 1), x), (1, 3)),
    ("broadcast-scalar", lambda x: ad.broadcast(x, (4, 3)),
     lambda x: ad.mul(_ones(4, 3), x), (1,)),
    ("diagonal", ad.diagonal,
     lambda x: ad.matmul(ad.mul(x, _eye(4)), _ones(4, 1)), (4, 4)),
    ("embed-diagonal", ad.embed_diagonal,
     lambda x: ad.mul(ad.matmul(x, _ones(1, 4)), _eye(4)), (4, 1)),
]


@pytest.mark.parametrize("name,op,replaced,shape", REDUCTION_FORMS,
                         ids=[c[0] for c in REDUCTION_FORMS])
def test_reduction_primitives_are_bitwise_the_forms_they_replace(
        name, op, replaced, shape):
    rng = np.random.default_rng(43)
    x = rng.uniform(0.5, 2.0, shape)
    with ad.use_tape(ad.Tape()):
        out_shape = op(ad.constant(x)).shape
    weights = rng.uniform(0.5, 2.0, out_shape)
    assert _forward_and_gradients(op, [x], weights) == \
        _forward_and_gradients(replaced, [x], weights)


def test_sums_and_broadcast_second_order_match_finite_differences(tape):
    # the create_graph gradient of x runs broadcast as the sums' rule and
    # embed-diagonal as diagonal's; differentiating it again in s runs the
    # sums as broadcast's rule and diagonal as embed-diagonal's
    rng = np.random.default_rng(31)
    x0, s0 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    c = ad.constant(rng.standard_normal((4, 3)))

    def outer_of(tx, ts):
        h = ad.mul(tx, ts)
        spread = ad.mul(ad.broadcast(ad.sum_rows(h), (4, 3)),
                        ad.broadcast(ad.sum_cols(h), (4, 3)))
        gram = ad.matmul(h, h, tb=True)
        inner = ad.add(ad.reduce_sum(ad.sigmoid(spread)),
                       ad.reduce_sum(ad.square(
                           ad.embed_diagonal(ad.sigmoid(ad.diagonal(gram))))))
        gx = ad.backward(inner, [tx], create_graph=True)[tx]
        return ad.reduce_sum(ad.mul(gx, c))

    s = ad.variable(s0)
    gs = ad.backward(outer_of(ad.variable(x0), s), [s])[s]

    def pipeline(ts):
        probe = ad.Tape()
        with ad.use_tape(probe):
            return outer_of(probe.adopt(ad.Tensor(x0.copy())),
                            ad.constant(ts.data)).item()

    fd = ad.finite_diff_gradient(pipeline, s)
    assert float(np.max(np.abs(fd.data))) > 1e-3
    assert ad.max_relative_error(gs, fd) < 1e-6


def test_broadcast_and_diagonal_reject_bad_shapes(tape):
    for shape, target in (((2, 3), (4, 3)), ((4, 1), (4,)), ((2,), (2, 2))):
        with pytest.raises(ShapeError, match="broadcast"):
            ad.broadcast(ad.constant(np.ones(shape)), target)
    with pytest.raises(ShapeError, match="square"):
        ad.diagonal(ad.constant(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="column"):
        ad.embed_diagonal(ad.constant(np.ones((2, 2))))


# kinds whose finite-difference checks run outside the two case tables
FD_CHECKED_ELSEWHERE = {
    "edge-dots": (test_weighted_aggregate_second_order_through_create_graph,
                  test_transposed_aggregate_second_order_through_create_graph),
    "weighted-aggregate":
        test_weighted_aggregate_gradients_match_finite_differences,
}


def _kinds_without_finite_difference_case():
    covered = set(FD_CHECKED_ELSEWHERE)
    for op, shapes in ([(op, [shape]) for _, op, shape, _ in UNARY_CASES]
                       + [(op, [sa, sb]) for _, op, sa, sb in BINARY_CASES]
                       + [(lambda x, w, b, relu=relu:
                           ad.dense(x, w, b, relu=relu), list(shapes))
                          for _, relu, *shapes in DENSE_CASES]):
        tape = ad.Tape()
        with ad.use_tape(tape):
            op(*[ad.variable(np.full(sh, 0.5)) for sh in shapes])
        covered |= {node.kind for node in tape.nodes}
    return set(ad._PRIMITIVES) - covered


def test_every_primitive_has_a_finite_difference_case(monkeypatch):
    assert _kinds_without_finite_difference_case() == set()
    monkeypatch.setitem(ad._PRIMITIVES, "untested", ad._PRIMITIVES["relu"])
    assert _kinds_without_finite_difference_case() == {"untested"}


def test_shared_node_gradients_accumulate(tape):
    x = ad.variable([2.0])
    loss = ad.reduce_sum(ad.add(ad.square(x), ad.mul(x, x)))
    grads = ad.backward(loss, [x])
    np.testing.assert_allclose(grads[x].data, [8.0])


def test_unreachable_param_gets_zero_gradient(tape):
    x = ad.variable([1.0])
    y = ad.variable([5.0])
    loss = ad.reduce_sum(ad.square(x))
    grads = ad.backward(loss, [x, y])
    np.testing.assert_allclose(grads[y].data, [0.0])


def _w_v_loss(w, v, x):
    """W and V meet in a product; V also feeds a branch of its own."""
    h = ad.relu(ad.matmul(ad.matmul(x, w), v))
    return ad.add(ad.reduce_sum(ad.square(h)),
                  ad.reduce_mean(ad.exp(ad.scalar_scale(v, 0.5))))


@pytest.mark.parametrize("create_graph", [False, True])
def test_gradient_is_bitwise_the_same_whatever_else_is_requested(
        tape, create_graph):
    rng = np.random.default_rng(21)
    w = ad.variable(rng.standard_normal((3, 2)))
    v = ad.variable(rng.standard_normal((2, 4)))
    loss = _w_v_loss(w, v, ad.constant(rng.standard_normal((5, 3))))
    alone = ad.backward(loss, [w], create_graph=create_graph)[w]
    both = ad.backward(loss, [w, v], create_graph=create_graph)[w]
    assert (alone.node_id is not None) == create_graph
    assert alone.data.tobytes() == both.data.tobytes()


def test_create_graph_records_nothing_for_an_unrequested_leaf(tape):
    rng = np.random.default_rng(22)
    w_data = rng.standard_normal((3, 2))
    v_data = rng.standard_normal((2, 4))
    x = ad.constant(rng.standard_normal((5, 3)))
    added = []
    for v in (ad.variable(v_data), ad.constant(v_data)):
        w = ad.variable(w_data)
        loss = ad.add(ad.reduce_sum(ad.square(ad.matmul(x, w))),
                      ad.reduce_mean(ad.exp(ad.scalar_scale(v, 0.5))))
        before = len(tape.nodes)
        ad.backward(loss, [w], create_graph=True)
        added.append(len(tape.nodes) - before)
    assert added[0] == added[1] > 0


def test_backward_builds_no_gradient_for_a_constant(tape, monkeypatch):
    c = ad.constant(np.arange(6.0).reshape(2, 3))
    w = ad.variable(np.ones((3, 4)))
    loss = ad.reduce_sum(ad.matmul(c, w))
    built = []
    forward = ad.primitive_forward

    def counting(kind, inputs, **extras):
        built.append((kind, inputs))
        return forward(kind, inputs, **extras)

    monkeypatch.setattr(ad, "primitive_forward", counting)
    grads = ad.backward(loss, [w])
    # sum's rule, then W's gradient C^T @ g as one flagged product; C's
    # would read W
    assert [kind for kind, _ in built] == ["broadcast", "matmul"]
    assert not any(t is w for _, inputs in built for t in inputs)
    np.testing.assert_array_equal(
        grads[w].data, np.repeat(c.data.sum(axis=0)[:, None], 4, axis=1))


# ---------------------------------------------------------------------------
# backward: second order
# ---------------------------------------------------------------------------

def test_second_derivative_of_cube(tape):
    x = ad.variable([2.0])
    loss = ad.mul(ad.square(x), x)  # x^3
    g = ad.backward(loss, [x], create_graph=True)[x]
    assert g.node_id is not None
    np.testing.assert_allclose(g.data, [12.0])  # 3x^2
    g2 = ad.backward(ad.reduce_sum(g), [x])
    np.testing.assert_allclose(g2[x].data, [12.0])  # 6x


def test_create_graph_flag_gates_differentiability(tape):
    x = ad.variable([2.0])
    g = ad.backward(ad.square(x), [x], create_graph=False)[x]
    assert g.node_id is None


def test_meta_style_composite_matches_finite_differences(tape):
    # g = d/dw (w*a)^2 at w=1, then differentiate sum(g) w.r.t. a
    w = ad.variable([1.0])
    a = ad.variable([2.0])

    def inner_grad(ta):
        prod = ad.mul(w, ta)
        loss = ad.square(prod)
        return ad.backward(loss, [w], create_graph=True)[w]

    g = inner_grad(a)
    outer = ad.backward(ad.reduce_sum(g), [a])

    def pipeline(ta):
        # recompute d/dw (w*ta)^2 = 2*w*ta^2 by fresh tape each evaluation
        probe = ad.Tape()
        with ad.use_tape(probe):
            wv = probe.adopt(ad.Tensor(w.data.copy()))
            loss = ad.square(ad.mul(wv, ad.constant(ta.data)))
            return ad.backward(loss, [wv], create_graph=False)[wv].item()

    fd = ad.finite_diff_gradient(pipeline, a)
    assert ad.max_relative_error(outer[a], fd) < 1e-4


def test_second_order_random_pipelines_match_finite_differences(tape):
    rng = np.random.default_rng(23)
    for trial in range(4):
        w = ad.variable(rng.standard_normal((3, 3)))
        s = ad.variable(rng.standard_normal((3, 3)))
        x = ad.constant(rng.standard_normal((4, 3)))
        lr = 0.3
        if trial == 3:
            # x @ b computed as (b^T @ x^T)^T, with both operands flagged
            def mm(a, b):
                return ad.transpose(ad.matmul(b, a, ta=True, tb=True))
        else:
            mm = ad.matmul

        def meta_loss(ts, record=True):
            h = ad.sigmoid(mm(x, ad.mul(w, ts)))
            inner = ad.reduce_mean(ad.square(h))
            gw = ad.backward(inner, [w], create_graph=True)[w]
            w_virtual = ad.sub(w, ad.scalar_scale(gw, lr))
            out = ad.sigmoid(mm(x, w_virtual))
            return ad.reduce_sum(ad.mul(out, ad.constant(
                rng_fixed := np.ones((4, 3)))))

        loss = meta_loss(s)
        gs = ad.backward(loss, [s])

        def pipeline(ts):
            probe = ad.Tape()
            with ad.use_tape(probe):
                wv = probe.adopt(ad.Tensor(w.data.copy()))
                sv = ad.constant(ts.data)
                h = ad.sigmoid(ad.matmul(x, ad.mul(wv, sv)))
                inner = ad.reduce_mean(ad.square(h))
                gw = ad.backward(inner, [wv], create_graph=True)[wv]
                w_virtual = ad.sub(wv, ad.scalar_scale(gw, lr))
                out = ad.sigmoid(ad.matmul(x, w_virtual))
                return ad.reduce_sum(out).item()

        fd = ad.finite_diff_gradient(pipeline, s)
        assert ad.max_relative_error(gs[s], fd) < 1e-3, f"trial {trial}"


def test_virtual_step_with_zero_rate_gives_exact_zero_meta_grad(tape):
    rng = np.random.default_rng(3)
    w = ad.variable(rng.standard_normal((2, 2)))
    s = ad.variable(rng.standard_normal((2, 2)))
    x = ad.constant(rng.standard_normal((3, 2)))
    h = ad.sigmoid(ad.matmul(x, ad.mul(w, s)))
    inner = ad.reduce_mean(ad.square(h))
    gw = ad.backward(inner, [w], create_graph=True)
    (w_virtual,) = ad.sgd_virtual_step([w], gw, 0.0)
    np.testing.assert_array_equal(w_virtual.data, w.data)
    outer = ad.reduce_sum(ad.sigmoid(ad.matmul(x, w_virtual)))
    gs = ad.backward(outer, [s])
    assert float(np.max(np.abs(gs[s].data))) < 1e-12


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def test_sgd_virtual_step_arithmetic(tape):
    p = ad.variable([1.0])
    g = ad.backward(ad.square(p), [p], create_graph=True)
    (stepped,) = ad.sgd_virtual_step([p], g, 0.5)
    np.testing.assert_allclose(stepped.data, [0.0])
    assert stepped.node_id is not None


def test_sgd_virtual_step_requires_differentiable_grads(tape):
    p = ad.variable([1.0])
    g = ad.backward(ad.square(p), [p], create_graph=False)
    with pytest.raises(TapeError):
        ad.sgd_virtual_step([p], g, 0.1)


def test_virtual_params_depend_on_second_input(tape):
    # d(virtual w)/d s must be nonzero when the inner grad depends on s
    rng = np.random.default_rng(5)
    w = ad.variable([1.5])
    s = ad.variable([0.7])
    inner = ad.square(ad.mul(w, s))
    gw = ad.backward(inner, [w], create_graph=True)
    (wv,) = ad.sgd_virtual_step([w], gw, 0.25)
    gs = ad.backward(ad.reduce_sum(ad.square(wv)), [s])

    def pipeline(ts):
        probe = ad.Tape()
        with ad.use_tape(probe):
            wt = probe.adopt(ad.Tensor(w.data.copy()))
            inner = ad.square(ad.mul(wt, ad.constant(ts.data)))
            g = ad.backward(inner, [wt], create_graph=True)
            (stepped,) = ad.sgd_virtual_step([wt], g, 0.25)
            return ad.reduce_sum(ad.square(stepped)).item()

    fd = ad.finite_diff_gradient(pipeline, s)
    assert abs(gs[s].item()) > 1e-3
    assert ad.max_relative_error(gs[s], fd) < 1e-4


def test_adam_zero_gradient_leaves_parameters(tape):
    p = ad.variable([1.0, -2.0])
    grads = {p: ad.constant([0.0, 0.0])}
    state = ad.AdamState()
    (new_p,), state = ad.adam_step([p], grads, state, lr=0.1)
    np.testing.assert_array_equal(new_p.data, p.data)
    assert state.step_count == 1


def test_adam_first_step_hand_computed(tape):
    # grad 1, lr 0.1: m_hat = 1, v_hat = 1 -> step of lr/(1+eps) ~ 0.1
    p = ad.variable([1.0])
    grads = {p: ad.constant([1.0])}
    (new_p,), _ = ad.adam_step([p], grads, ad.AdamState(), lr=0.1)
    np.testing.assert_allclose(new_p.data, [1.0 - 0.1 / (1.0 + 1e-8)])
    assert new_p.node_id is None  # off the tape: the caller adopts it


def test_adam_two_identical_steps_follow_recurrence(tape):
    g = 0.5
    lr = 0.05
    p = ad.variable([2.0])
    state = ad.AdamState()
    m = v = 0.0
    expect = 2.0
    for t in (1, 2):
        grads = {p: ad.constant([g])}
        (p,), state = ad.adam_step([p], grads, state, lr=lr)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        expect -= lr * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(p.data, [expect])
        np.testing.assert_allclose(state.m[0], [m])
        np.testing.assert_allclose(state.v[0], [v])


def test_adam_missing_gradient_entry_raises(tape):
    p = ad.variable([1.0])
    q = ad.variable([2.0])
    grads = {p: ad.constant([1.0])}
    with pytest.raises(KeyError):
        ad.adam_step([p, q], grads, ad.AdamState(), lr=0.1)


def _adam_snapshot(state):
    return (state.step_count, list(state.shapes), state.m.copy(),
            state.v.copy())


@pytest.mark.parametrize("case", ["wrong-shape", "wrong-gradient-shape",
                                  "extra-parameter", "missing-parameter",
                                  "same-size-other-shape"])
def test_adam_failed_step_leaves_state_unchanged(tape, case):
    p, q = ad.variable([1.0, 2.0]), ad.variable([[3.0]])
    grads = {p: ad.constant([0.5, -0.5]), q: ad.constant([[1.0]])}
    (p, q), state = ad.adam_step([p, q], grads, ad.AdamState(), lr=0.1)
    before = _adam_snapshot(state)
    grads = {p: ad.constant([0.5, -0.5]), q: ad.constant([[1.0]])}
    if case == "wrong-shape":
        q = ad.variable([3.0, 4.0])
        grads[q] = ad.constant([1.0, 1.0])
        params = [p, q]
    elif case == "wrong-gradient-shape":
        grads[q] = ad.constant([1.0, 1.0])
        params = [p, q]
    elif case == "extra-parameter":
        r = ad.variable([5.0])
        grads[r] = ad.constant([1.0])
        params = [p, q, r]
    elif case == "missing-parameter":
        params = [p]
    else:  # as many entries as the held (2,), but laid out as (1, 2)
        p = ad.variable([[1.0, 2.0]])
        grads[p] = ad.constant([[0.5, -0.5]])
        params = [p, q]
    with pytest.raises(ShapeError, match="adam-step"):
        ad.adam_step(params, grads, state, lr=0.1)
    after = _adam_snapshot(state)
    assert after[0] == before[0] == 1
    assert after[1] == before[1] == [(2,), (1, 1)]
    for got, want in zip(after[2:], before[2:]):
        assert got.shape == (3,)
        np.testing.assert_array_equal(got, want)


def test_adam_flat_update_equals_a_per_tensor_update_bitwise(tape):
    rng = np.random.default_rng(11)
    shapes = [(3, 4), (4,), (1, 1), (2, 5)]
    params = [ad.variable(rng.standard_normal(s)) for s in shapes]
    want = [p.data.copy() for p in params]
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    state = ad.AdamState()
    for t in (1, 2, 3):
        raw = [rng.standard_normal(s) for s in shapes]
        raw[3] = rng.standard_normal((5, 2)).T  # a transposed view
        grads = {p: ad.constant(g) for p, g in zip(params, raw)}
        params, state = ad.adam_step(params, grads, state, lr=0.01)
        # the reference: Adam's arithmetic, one tensor at a time
        for i, g in enumerate(raw):
            ms[i] = 0.9 * ms[i] + (1.0 - 0.9) * g
            vs[i] = 0.999 * vs[i] + (1.0 - 0.999) * g * g
            m_hat = ms[i] / (1.0 - 0.9 ** t)
            v_hat = vs[i] / (1.0 - 0.999 ** t)
            want[i] = want[i] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for p, w in zip(params, want):
            assert p.data.shape == w.shape
            assert p.data.tobytes() == w.tobytes()
        assert state.shapes == shapes and state.step_count == t
        assert state.m.tobytes() == np.concatenate(
            [m.ravel() for m in ms]).tobytes()
        assert state.v.tobytes() == np.concatenate(
            [v.ravel() for v in vs]).tobytes()


def test_adam_failed_first_step_leaves_state_empty(tape):
    p = ad.variable([1.0, 2.0])
    state = ad.AdamState()
    with pytest.raises(ShapeError, match="adam-step"):
        ad.adam_step([p], {p: ad.constant([1.0])}, state, lr=0.1)
    assert state.step_count == 0 and state.shapes is None
    assert state.m is None and state.v is None


# ---------------------------------------------------------------------------
# finite differences and determinism
# ---------------------------------------------------------------------------

def test_finite_diff_of_sum_is_all_ones(tape):
    x = ad.constant(np.arange(6.0).reshape(2, 3) + 1.0)
    fd = ad.finite_diff_gradient(lambda t: ad.reduce_sum(t).item(), x)
    np.testing.assert_allclose(fd.data, np.ones((2, 3)), atol=1e-8)


@pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf"),
                                  "a"])
def test_finite_diff_rejects_a_step_that_is_not_finite_and_positive(
        tape, step):
    # inf gave a silent zero gradient and nan an all-nan one
    x = ad.constant([0.3, -0.2])
    with pytest.raises(ConfigError, match="finite and positive"):
        ad.finite_diff_gradient(
            lambda t: ad.reduce_sum(ad.sigmoid(t)).item(), x, step=step)


def test_finite_diff_of_square_at_three(tape):
    x = ad.constant([3.0])
    fd = ad.finite_diff_gradient(lambda t: ad.square(t).item(), x, step=1e-4)
    np.testing.assert_allclose(fd.data, [6.0], atol=1e-6)


def test_tape_determinism_bitwise():
    def run():
        t = ad.Tape()
        with ad.use_tape(t):
            rng = np.random.default_rng(99)
            x = ad.variable(rng.standard_normal((5, 4)))
            w = ad.variable(rng.standard_normal((4, 3)))
            loss = ad.reduce_mean(ad.square(ad.sigmoid(ad.matmul(x, w))))
            g = ad.backward(loss, [x, w])
            return loss.item(), g[x].data.tobytes(), g[w].data.tobytes()

    assert run() == run()


def test_tape_reset_and_adopt():
    t = ad.Tape()
    with ad.use_tape(t):
        x = ad.variable([1.0])
        ad.square(x)
        assert len(t.nodes) == 2
        t.reset()
        assert len(t.nodes) == 0
        t.adopt(x)
        assert x.node_id == 0
