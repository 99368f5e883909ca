import numpy as np
import pytest

from megagcl import autodiff as ad
from megagcl import gnn
from megagcl import graphdata as gd
from megagcl.augmenter import unit_edge_weights
from megagcl.errors import ConfigError, ShapeError

from conftest import ring_record, synthetic_dataset


def featured(rec, width=5):
    ds = gd.Dataset("T", [rec], 1)
    return gd.build_node_features(ds, "degree-onehot", cap=width - 1).records[0]


def triangle_batch():
    rec = featured(ring_record(3, 0))
    return gd.batch_graphs([rec])


def adopted_params(tape, dims, seed=0):
    phi, psi, sigma = gnn.init_params(dims, seed)
    for t in phi.tensors() + psi.tensors() + sigma.tensors():
        tape.adopt(t)
    return phi, psi, sigma


# ---------------------------------------------------------------------------
# gin layer
# ---------------------------------------------------------------------------

def test_zero_nonself_weights_reduce_to_per_node_mlp(tape):
    batch = triangle_batch()
    dims = gnn.ModelDims(feature_dim=5, hidden=4, layers=1)
    phi, _, _ = adopted_params(tape, dims, seed=1)
    w = np.zeros((batch.n_edges, 1))  # the self term carries no weight
    h = ad.constant(batch.features)
    out = gnn.gin_layer_forward(batch, h, ad.constant(w), phi.layers[0])
    per_node = gnn.mlp_forward(h, phi.layers[0])
    np.testing.assert_allclose(out.data, per_node.data)


def test_single_node_graph_is_mlp_of_its_row(tape):
    rec = gd.GraphRecord(gd.GraphTopology(1, ()), 0, features=np.ones((1, 3)))
    batch = gd.batch_graphs([rec])
    dims = gnn.ModelDims(feature_dim=3, hidden=4, layers=1)
    phi, _, _ = adopted_params(tape, dims, seed=2)
    out = gnn.gin_layer_forward(batch, ad.constant(batch.features),
                                unit_edge_weights(batch), phi.layers[0])
    want = gnn.mlp_forward(ad.constant(batch.features), phi.layers[0])
    np.testing.assert_allclose(out.data, want.data)


def _dense_gin_layer(batch, h, w, layer):
    """The oracle: MLP((A_w + I) @ H), with each graph's block of A_w built
    densely (the batch is block-diagonal)."""
    nodes = np.concatenate([[0], np.cumsum(np.bincount(
        batch.graph_of_node, minlength=batch.n_graphs))])
    rows = []
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        a = np.eye(hi - lo)
        inside = (batch.edge_dst >= lo) & (batch.edge_dst < hi)
        for e in np.flatnonzero(inside):
            a[batch.edge_dst[e] - lo, batch.edge_src[e] - lo] += w[e, 0]
        rows.append(a @ h[lo:hi])
    return gnn.mlp_forward(ad.constant(np.concatenate(rows)), layer).data


def test_unit_weight_aggregation_matches_dense_adjacency(tape):
    batch = triangle_batch()
    dims = gnn.ModelDims(feature_dim=5, hidden=4, layers=1)
    phi, _, _ = adopted_params(tape, dims, seed=3)
    out = gnn.gin_layer_forward(batch, ad.constant(batch.features),
                                unit_edge_weights(batch), phi.layers[0])
    # dense oracle: (A + I) @ H through the same mlp
    a = np.eye(3)
    for u, v in zip(batch.edge_src, batch.edge_dst):
        a[v, u] += 1.0
    want = gnn.mlp_forward(ad.constant(a @ batch.features), phi.layers[0])
    np.testing.assert_allclose(out.data, want.data, atol=1e-12)


@pytest.mark.parametrize("source", ["mutag", "synth"])
def test_gin_layer_is_the_mlp_of_weighted_adjacency_plus_identity(
        tape, request, source):
    if source == "mutag":
        ds = gd.build_node_features(request.getfixturevalue("mutag"),
                                    "node-label-onehot")
        records = ds.records[:32]
    else:
        records = request.getfixturevalue("synth_records")
    width = records[0].features.shape[1]
    empty = gd.GraphRecord(gd.GraphTopology(0, ()), 0,
                           features=np.zeros((0, width)))
    edgeless = gd.GraphRecord(gd.GraphTopology(3, ()), 0,
                              features=np.eye(3, width))
    middle = len(records) // 2
    batch = gd.batch_graphs(records[:middle] + [edgeless, empty]
                            + records[middle:])
    dims = gnn.ModelDims(feature_dim=width, hidden=8, layers=1)
    phi, _, _ = adopted_params(tape, dims, seed=12)
    rng = np.random.default_rng(13)
    for h in (batch.features, rng.standard_normal(batch.features.shape)):
        w = rng.uniform(0.0, 1.0, (batch.n_edges, 1))
        out = gnn.gin_layer_forward(batch, ad.constant(h), ad.constant(w),
                                    phi.layers[0])
        np.testing.assert_allclose(
            out.data, _dense_gin_layer(batch, h, w, phi.layers[0]),
            rtol=0, atol=1e-12)


def test_weight_misalignment_rejected(tape):
    batch = triangle_batch()
    dims = gnn.ModelDims(feature_dim=5, hidden=4, layers=1)
    phi, _, _ = adopted_params(tape, dims, seed=0)
    with pytest.raises(ShapeError):
        gnn.gin_layer_forward(batch, ad.constant(batch.features),
                              ad.constant(np.ones((2, 1))), phi.layers[0])
    # aligned weights, but h lacks a node's row
    with pytest.raises(ShapeError, match="weighted-aggregate"):
        gnn.gin_layer_forward(batch, ad.constant(batch.features[:-1]),
                              unit_edge_weights(batch), phi.layers[0])


# ---------------------------------------------------------------------------
# encode / readout / project
# ---------------------------------------------------------------------------

def _permuted_record(rec, perm):
    inv = np.argsort(perm)
    edges = tuple((int(inv[u]), int(inv[v])) for u, v in rec.topology.edges)
    return gd.GraphRecord(gd.GraphTopology(rec.n_nodes, edges), rec.label,
                          features=rec.features[perm])


def test_encode_k1_equals_single_layer(tape):
    batch = triangle_batch()
    dims = gnn.ModelDims(feature_dim=5, hidden=4, layers=1)
    phi, _, _ = adopted_params(tape, dims, seed=4)
    w = unit_edge_weights(batch)
    enc = gnn.encode(batch, w, phi)
    one = gnn.gin_layer_forward(batch, ad.constant(batch.features), w,
                                phi.layers[0])
    np.testing.assert_array_equal(enc.data, one.data)


def test_node_permutation_permutes_rows(tape):
    rec = featured(ring_record(5, 0))
    perm = np.array([3, 0, 4, 1, 2])
    batch = gd.batch_graphs([rec])
    batch_p = gd.batch_graphs([_permuted_record(rec, perm)])
    dims = gnn.ModelDims(feature_dim=5, hidden=6, layers=3)
    phi, _, _ = adopted_params(tape, dims, seed=5)
    h = gnn.encode(batch, unit_edge_weights(batch), phi)
    h_p = gnn.encode(batch_p, unit_edge_weights(batch_p), phi)
    np.testing.assert_allclose(h_p.data, h.data[perm], atol=1e-12)


def test_zero_features_zero_biases_give_zero(tape):
    rec = featured(ring_record(4, 0))
    rec = gd.GraphRecord(rec.topology, 0, features=np.zeros_like(rec.features))
    batch = gd.batch_graphs([rec])
    dims = gnn.ModelDims(feature_dim=5, hidden=4, layers=2)
    phi, _, _ = adopted_params(tape, dims, seed=6)
    out = gnn.encode(batch, unit_edge_weights(batch), phi)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_readout_single_node_graphs_is_identity(tape):
    recs = [gd.GraphRecord(gd.GraphTopology(1, ()), 0,
                           features=np.full((1, 2), float(i)))
            for i in range(3)]
    batch = gd.batch_graphs(recs)
    h = ad.constant(batch.features)
    out = gnn.readout(batch, h)
    np.testing.assert_array_equal(out.data, batch.features)


def test_readout_identical_graphs_identical_rows(tape):
    rec = featured(ring_record(4, 0))
    batch = gd.batch_graphs([rec, rec])
    dims = gnn.ModelDims(feature_dim=5, hidden=4, layers=2)
    phi, _, _ = adopted_params(tape, dims, seed=7)
    pooled = gnn.readout(batch, gnn.encode(batch, unit_edge_weights(batch), phi))
    np.testing.assert_allclose(pooled.data[0], pooled.data[1], atol=1e-12)


def test_readout_invariant_to_relabeling(tape):
    rec = featured(ring_record(5, 0))
    perm = np.array([4, 2, 0, 3, 1])
    batch = gd.batch_graphs([rec])
    batch_p = gd.batch_graphs([_permuted_record(rec, perm)])
    dims = gnn.ModelDims(feature_dim=5, hidden=6, layers=3)
    phi, _, _ = adopted_params(tape, dims, seed=8)
    r = gnn.readout(batch, gnn.encode(batch, unit_edge_weights(batch), phi))
    r_p = gnn.readout(batch_p, gnn.encode(batch_p, unit_edge_weights(batch_p), phi))
    np.testing.assert_allclose(r.data, r_p.data, atol=1e-10)


def test_batch_independence_of_embeddings(tape):
    ds = synthetic_dataset(n_per_class=3, seed=1)
    dims = gnn.ModelDims(feature_dim=ds.feature_width, hidden=8, layers=3)
    phi, _, _ = adopted_params(tape, dims, seed=9)
    big = gd.batch_graphs(ds.records)
    pooled = gnn.readout(big, gnn.encode(big, unit_edge_weights(big), phi))
    for i, rec in enumerate(ds.records):
        solo = gd.batch_graphs([rec])
        row = gnn.readout(solo, gnn.encode(solo, unit_edge_weights(solo), phi))
        np.testing.assert_allclose(row.data[0], pooled.data[i], atol=1e-10)


def test_readout_of_zero_node_graph_mid_batch_is_zero_row(tape):
    ds = synthetic_dataset(n_per_class=1, seed=2)
    empty = gd.GraphRecord(gd.GraphTopology(0, ()), 0,
                           features=np.zeros((0, ds.feature_width)))
    recs = [ds.records[0], empty, ds.records[1]]
    dims = gnn.ModelDims(feature_dim=ds.feature_width, hidden=8, layers=3)
    phi, _, _ = adopted_params(tape, dims, seed=11)

    def pooled(records):
        batch = gd.batch_graphs(records)
        return gnn.readout(batch, gnn.encode(batch, unit_edge_weights(batch),
                                             phi)).data

    rows = pooled(recs)
    assert rows.shape == (3, 8)
    np.testing.assert_array_equal(rows[1], np.zeros(8))
    for i in (0, 2):
        np.testing.assert_allclose(rows[i], pooled([recs[i]])[0], rtol=0,
                                   atol=1e-12)


def test_project_zero_weights_zero_output(tape):
    psi = gnn.MlpParams(ad.constant(np.zeros((3, 4))),
                        ad.constant(np.zeros((1, 4))),
                        ad.constant(np.zeros((4, 2))),
                        ad.constant(np.zeros((1, 2))))
    out = gnn.project(ad.constant(np.ones((5, 3))), psi)
    np.testing.assert_array_equal(out.data, np.zeros((5, 2)))


def test_project_identity_passthrough_for_nonnegative_input(tape):
    psi = gnn.MlpParams(ad.constant(np.eye(3)), ad.constant(np.zeros((1, 3))),
                        ad.constant(np.eye(3)), ad.constant(np.zeros((1, 3))))
    x = np.abs(np.random.default_rng(0).standard_normal((4, 3)))
    out = gnn.project(ad.constant(x), psi)
    np.testing.assert_allclose(out.data, x)


def test_project_dimension_mismatch(tape):
    psi = gnn.MlpParams(ad.constant(np.zeros((3, 4))),
                        ad.constant(np.zeros((1, 4))),
                        ad.constant(np.zeros((4, 2))),
                        ad.constant(np.zeros((1, 2))))
    with pytest.raises(ShapeError):
        gnn.project(ad.constant(np.ones((5, 7))), psi)


def test_encoder_gradients_match_finite_differences(tape):
    rec = featured(ring_record(4, 0))
    batch = gd.batch_graphs([rec])
    dims = gnn.ModelDims(feature_dim=5, hidden=3, layers=2, proj_dim=3)
    phi, psi, _ = adopted_params(tape, dims, seed=10)
    target = phi.layers[0].w1

    def loss_through(w1_value):
        layers = [gnn.MlpParams(w1_value, *phi.layers[0].tensors()[1:])] + \
            phi.layers[1:]
        phi2 = gnn.EncoderParams(layers)
        z = gnn.project(gnn.readout(batch, gnn.encode(
            batch, unit_edge_weights(batch), phi2)), psi)
        return ad.reduce_mean(ad.square(z))

    loss = loss_through(target)
    grads = ad.backward(loss, [target])
    fd = ad.finite_diff_gradient(lambda t: loss_through(t).item(), target)
    assert ad.max_relative_error(grads[target], fd) < 1e-4


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_deterministic_and_bounded():
    dims = gnn.ModelDims(feature_dim=7)
    phi_a, psi_a, sig_a = gnn.init_params(dims, seed=42)
    phi_b, psi_b, sig_b = gnn.init_params(dims, seed=42)
    phi_c, _, _ = gnn.init_params(dims, seed=43)
    for ta, tb in zip(phi_a.tensors() + psi_a.tensors() + sig_a.tensors(),
                      phi_b.tensors() + psi_b.tensors() + sig_b.tensors()):
        np.testing.assert_array_equal(ta.data, tb.data)
    assert any(not np.array_equal(ta.data, tc.data)
               for ta, tc in zip(phi_a.tensors(), phi_c.tensors()))
    for mat in (phi_a.layers[0].w1, psi_a.w1, sig_a.w1):
        fan_in, fan_out = mat.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(mat.data) <= bound)
    for vec in (phi_a.layers[0].b1, psi_a.b2, sig_a.b2):
        np.testing.assert_array_equal(vec.data, np.zeros_like(vec.data))


def test_init_dimension_chain():
    dims = gnn.ModelDims(feature_dim=7, hidden=16, layers=3, proj_dim=8,
                         aug_hidden=4)
    phi, psi, sigma = gnn.init_params(dims, seed=0)
    assert phi.layers[0].w1.shape == (7, 16)
    for a, b in zip(phi.layers, phi.layers[1:]):
        assert a.w2.shape[1] == b.w1.shape[0]
    assert psi.w1.shape == (16, 16) and psi.w2.shape == (16, 8)
    assert sigma.w1.shape == (14, 4) and sigma.w2.shape == (4, 1)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_init_params_rejects_a_seed_that_is_not_a_nonnegative_int(seed):
    with pytest.raises(ConfigError, match="seed"):
        gnn.init_params(gnn.ModelDims(feature_dim=7), seed)


@pytest.mark.parametrize("name,value", [
    ("feature_dim", 0), ("hidden", 0), ("layers", 0), ("proj_dim", -1),
    ("aug_hidden", 0), ("hidden", 2.5), ("layers", True), ("proj_dim", "8")])
def test_model_dims_reject_non_positive_or_non_int(name, value):
    fields = dict(feature_dim=7)
    fields[name] = value
    with pytest.raises(ConfigError, match=name):
        gnn.ModelDims(**fields)
