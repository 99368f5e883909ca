import numpy as np
import pytest

from megagcl import augmenter as aug
from megagcl import autodiff as ad
from megagcl import gnn
from megagcl import graphdata as gd
from megagcl.errors import ShapeError

from conftest import ring_record


def small_batch(n=3):
    ds = gd.Dataset("T", [ring_record(n, 0)], 1)
    ds = gd.build_node_features(ds, "degree-onehot", cap=3)
    return gd.batch_graphs(ds.records)


def make_sigma(tape, width, hidden=4, seed=0, zero=False):
    rng = np.random.default_rng(seed)
    if zero:
        w1 = np.zeros((2 * width, hidden))
        w2 = np.zeros((hidden, 1))
    else:
        w1 = rng.standard_normal((2 * width, hidden))
        w2 = rng.standard_normal((hidden, 1))
    sigma = aug.AugmenterParams(ad.constant(w1), ad.constant(np.zeros((1, hidden))),
                                ad.constant(w2), ad.constant(np.zeros((1, 1))))
    for t in sigma.tensors():
        tape.adopt(t)
    return sigma


def test_zero_sigma_gives_half_weights(tape):
    batch = small_batch()
    sigma = make_sigma(tape, 4, zero=True)
    w = aug.lga_edge_weights(batch, sigma)
    assert w.shape == (batch.n_edges, 1) == (6, 1)  # no self-loop entries
    np.testing.assert_array_equal(w.data, 0.5)


def test_weights_strictly_inside_unit_interval(tape):
    batch = small_batch(5)
    sigma = make_sigma(tape, 4, seed=3)
    w = aug.lga_edge_weights(batch, sigma).data
    assert np.all(w > 0.0) and np.all(w < 1.0)


def test_edgeless_batch_gets_an_empty_weight_column(tape):
    recs = [gd.GraphRecord(gd.GraphTopology(n, ()), 0,
                           features=np.eye(n, 4)) for n in (1, 3, 0, 2)]
    batch = gd.batch_graphs(recs)
    sigma = make_sigma(tape, 4, seed=1)
    w = aug.lga_edge_weights(batch, sigma)
    assert w.shape == (0, 1) and w.node_id is not None
    # a loss through the empty column gives every parameter a zero gradient
    loss = ad.reduce_sum(ad.square(w))
    grads = ad.backward(loss, sigma.tensors())
    for t in sigma.tensors():
        assert grads[t].shape == t.shape
        np.testing.assert_array_equal(grads[t].data, 0.0)


def test_feature_width_mismatch(tape):
    batch = small_batch()
    sigma = make_sigma(tape, 7)
    with pytest.raises(ShapeError):
        aug.lga_edge_weights(batch, sigma)


def test_deterministic_given_sigma_and_batch(tape):
    batch = small_batch(4)
    sigma = make_sigma(tape, 4, seed=9)
    a = aug.lga_edge_weights(batch, sigma)
    b = aug.lga_edge_weights(batch, sigma)
    assert a.data.tobytes() == b.data.tobytes()


def test_bias_monotonicity(tape):
    batch = small_batch(5)
    sigma = make_sigma(tape, 4, seed=5)
    w_low = aug.lga_edge_weights(batch, sigma).data
    sigma_hi = aug.AugmenterParams(sigma.w1, sigma.b1, sigma.w2,
                                   ad.constant([[1.5]]))
    w_hi = aug.lga_edge_weights(batch, sigma_hi).data
    assert np.all(w_hi > w_low)


def test_gradient_wrt_sigma_matches_finite_differences(tape):
    # 2-edge graph: a single undirected pair
    rec = gd.GraphRecord(gd.GraphTopology(2, ((0, 1), (1, 0))), 0,
                         features=np.array([[1.0, 2.0], [0.5, -1.0]]))
    batch = gd.batch_graphs([rec])
    sigma = make_sigma(tape, 2, hidden=3, seed=7)
    probe = ad.constant(np.random.default_rng(0).standard_normal(
        (batch.n_edges, 1)))

    def loss_via(w1):
        s = aug.AugmenterParams(w1, sigma.b1, sigma.w2, sigma.b2)
        return ad.reduce_sum(ad.mul(aug.lga_edge_weights(batch, s), probe))

    grads = ad.backward(loss_via(sigma.w1), [sigma.w1])
    fd = ad.finite_diff_gradient(lambda t: loss_via(t).item(), sigma.w1)
    assert ad.max_relative_error(grads[sigma.w1], fd) < 1e-4


def test_all_ones_weights_encode_like_original(tape):
    batch = small_batch(4)
    dims = gnn.ModelDims(feature_dim=4, hidden=4, layers=2)
    phi, _, _ = gnn.init_params(dims, seed=0)
    h_aug = gnn.encode(batch, ad.constant(np.ones((batch.n_edges, 1))), phi)
    h_orig = gnn.encode(batch, aug.unit_edge_weights(batch), phi)
    np.testing.assert_array_equal(h_aug.data, h_orig.data)


def test_zero_nonself_weights_encode_as_isolated_nodes(tape):
    batch = small_batch(4)
    dims = gnn.ModelDims(feature_dim=4, hidden=4, layers=2)
    phi, _, _ = gnn.init_params(dims, seed=1)
    w = np.zeros((batch.n_edges, 1))
    h = gnn.encode(batch, ad.constant(w), phi)
    # oracle: the same nodes as four single-node graphs
    singles = [gd.GraphRecord(gd.GraphTopology(1, ()), 0,
                              features=batch.features[i:i + 1])
               for i in range(batch.n_nodes)]
    iso = gd.batch_graphs(singles)
    h_iso = gnn.encode(iso, aug.unit_edge_weights(iso), phi)
    np.testing.assert_allclose(h.data, h_iso.data, atol=1e-12)


def test_intermediate_weights_interpolate_one_linear_layer(tape):
    batch = small_batch(3)
    # single linear layer: identity-ish mlp (w1 = I, relu passes nonneg, w2 = I)
    width = 4
    layer = gnn.MlpParams(ad.constant(np.eye(width)),
                          ad.constant(np.zeros((1, width))),
                          ad.constant(np.eye(width)),
                          ad.constant(np.zeros((1, width))))
    phi = gnn.EncoderParams([layer])

    def encode_with(scale):
        w = np.full((batch.n_edges, 1), scale)
        return gnn.encode(batch, ad.constant(w), phi).data

    lo, mid, hi = encode_with(0.0), encode_with(0.4), encode_with(1.0)
    np.testing.assert_allclose(mid, lo + 0.4 * (hi - lo), atol=1e-12)


def test_detach_view_stops_gradient(tape):
    batch = small_batch(4)
    sigma = make_sigma(tape, 4, seed=2)
    weights = aug.lga_edge_weights(batch, sigma)
    hat = ad.detach(weights)
    np.testing.assert_array_equal(hat.data, weights.data)
    assert hat.node_id is None
    dims = gnn.ModelDims(feature_dim=4, hidden=4, layers=1)
    phi, _, _ = gnn.init_params(dims, seed=3)
    for t in phi.tensors():
        tape.adopt(t)
    loss = ad.reduce_mean(ad.square(gnn.encode(batch, hat, phi)))
    grads = ad.backward(loss, list(sigma.tensors()))
    for t in sigma.tensors():
        np.testing.assert_array_equal(grads[t].data, np.zeros(t.shape))
    # the encoder parameters do keep a live path
    assert np.any(grads_phi := ad.backward(loss, [phi.layers[0].w1])
                  [phi.layers[0].w1].data)
