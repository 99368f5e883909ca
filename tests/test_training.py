import hashlib
from collections import Counter
from functools import partial

import numpy as np
import pytest

from megagcl import autodiff as ad
from megagcl import augmenter as lga
from megagcl import evaluation
from megagcl import gnn
from megagcl import graphdata as gd
from megagcl import losses
from megagcl import training as tr
from megagcl.errors import ConfigError, DataError, NumericError

from conftest import count_calls, ring_record, synthetic_dataset


def tiny_fixture():
    """Two graphs, two nodes each: the smallest batch with negatives."""
    recs = []
    feats = [np.array([[1.0, 0.2], [0.1, -0.6]]),
             np.array([[-0.4, 0.9], [0.7, 0.3]])]
    for i in range(2):
        topo = gd.GraphTopology(2, ((0, 1), (1, 0)))
        recs.append(gd.GraphRecord(topo, i, features=feats[i]))
    ds = gd.Dataset("TINY", recs, 2)
    return ds, gd.batch_graphs(recs)


def small_dims(width):
    return gnn.ModelDims(feature_dim=width, hidden=3, layers=2, proj_dim=3,
                         aug_hidden=3)


def fresh_state(dims, seed=0):
    return tr.init_train_state(dims, seed)


def hp(**kw):
    base = dict(tau=0.5, lam=0.1, inner_lr=1e-3, encoder_lr=1e-3,
                augmenter_lr=1e-4, epochs=1, batch_size=4, seed=0)
    base.update(kw)
    return tr.Hyperparams(**base)


def param_bytes(params):
    return [t.data.tobytes() for t in params.tensors()]


# ---------------------------------------------------------------------------
# contrast step
# ---------------------------------------------------------------------------

def test_contrast_step_freezes_sigma_updates_encoder():
    ds, batch = tiny_fixture()
    state = fresh_state(small_dims(2))
    sigma_before = param_bytes(state.sigma)
    phi_before = param_bytes(state.phi)
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        record = tr.contrast_step(state, batch, hp())
    assert param_bytes(state.sigma) == sigma_before
    assert param_bytes(state.phi) != phi_before
    assert np.isfinite(record["l_contrast"])
    assert {"l_contrast", "l_mega", "tr_c", "de_c", "feature_term"} <= set(record)


def test_contrast_loss_decreases_over_20_steps():
    ds = synthetic_dataset(n_per_class=6, seed=2)
    state = fresh_state(small_dims(ds.feature_width), seed=1)
    batch = gd.batch_graphs(ds.records)
    values = []
    tape = ad.Tape()
    with ad.use_tape(tape):
        for _ in range(21):
            tape.reset()
            state.adopt_all(tape)
            values.append(tr.contrast_step(state, batch, hp())["l_contrast"])
    drops = sum(1 for a, b in zip(values, values[1:]) if b < a)
    assert drops >= 15, values


def test_ccl_mode_is_plain_contrastive_training():
    ds = synthetic_dataset(n_per_class=4, seed=3)
    _, log = tr.train(ds, hp(epochs=2, batch_size=8), mode="ccl")
    assert all(r["step"] == "contrast" for r in log.records)


# ---------------------------------------------------------------------------
# meta step
# ---------------------------------------------------------------------------

def test_meta_step_updates_sigma_only():
    ds, batch = tiny_fixture()
    state = fresh_state(small_dims(2))
    phi_before = param_bytes(state.phi)
    psi_before = param_bytes(state.psi)
    sigma_before = param_bytes(state.sigma)
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        record = tr.meta_step(state, batch, hp())
    assert param_bytes(state.phi) == phi_before
    assert param_bytes(state.psi) == psi_before
    assert param_bytes(state.sigma) != sigma_before
    assert np.isfinite(record["l_mega"])


def test_meta_gradient_zero_when_inner_rate_zero():
    ds, batch = tiny_fixture()
    state = fresh_state(small_dims(2))
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        grads, _ = tr.meta_gradients(state.phi, state.psi, state.sigma,
                                     batch, hp(inner_lr=0.0))
        total = sum(float(np.abs(grads[t].data).max())
                    for t in state.sigma.tensors())
    assert total < 1e-12


def _meta_objective_value(phi_data, psi_data, sigma_tensors, batch, hparams,
                          hat_weights=None):
    """Recompute the meta pipeline from detached parameter values.

    The stop-gradient view is a constant of the objective: when comparing
    against the implemented derivative, ``hat_weights`` must be pinned to
    the unperturbed weights (differentiating "through" the detached view is
    exactly what the stop gradient forbids).
    """
    tape = ad.Tape()
    with ad.use_tape(tape):
        phi = gnn.EncoderParams.from_tensors(
            [tape.adopt(ad.Tensor(d.copy())) for d in phi_data])
        psi = gnn.MlpParams.from_tensors(
            [tape.adopt(ad.Tensor(d.copy())) for d in psi_data])
        sigma = lga.AugmenterParams.from_tensors(
            [tape.adopt(ad.Tensor(t.data.copy())) for t in sigma_tensors])
        weights = lga.lga_edge_weights(batch, sigma)
        z = tr._encode_project(batch, lga.unit_edge_weights(batch), phi, psi)
        z_aug = tr._encode_project(batch, weights, phi, psi)
        l_contrast = losses.nt_xent(z, z_aug, hparams.tau)
        enc = phi.tensors() + psi.tensors()
        grads = ad.backward(l_contrast, enc, create_graph=True)
        virtual = ad.sgd_virtual_step(enc, grads, hparams.inner_lr)
        phi_v, psi_v = tr._split_encoder_tensors(phi, virtual)
        hat = ad.detach(weights) if hat_weights is None \
            else ad.constant(hat_weights)
        z_meta = tr._encode_project(batch, lga.unit_edge_weights(batch),
                                    phi_v, psi_v)
        z_aug_meta = tr._encode_project(batch, hat, phi_v, psi_v)
        return losses.mega_loss(losses.instance_corr(z_meta, z_aug_meta),
                                losses.feature_corr(z_meta, z_aug_meta),
                                hparams.lam).item()


def test_meta_gradient_matches_finite_differences():
    """The central mechanism: analytic grad through the virtual step vs
    numeric differentiation of the whole pipeline."""
    ds, batch = tiny_fixture()
    state = fresh_state(small_dims(2), seed=4)
    hparams = hp(inner_lr=0.05, lam=0.1)  # a visible inner step
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        grads, _ = tr.meta_gradients(state.phi, state.psi, state.sigma,
                                     batch, hparams)
    phi_data = [t.data for t in state.phi.tensors()]
    psi_data = [t.data for t in state.psi.tensors()]
    probe = ad.Tape()
    with ad.use_tape(probe):
        sigma = lga.AugmenterParams.from_tensors(
            [probe.adopt(ad.Tensor(t.data.copy()))
             for t in state.sigma.tensors()])
        base_weights = lga.lga_edge_weights(batch, sigma).data

    for t in state.sigma.tensors():
        def value_with(replaced, target=t):
            originals = state.sigma.tensors()
            subs = [replaced if s is target else s for s in originals]
            return _meta_objective_value(
                phi_data, psi_data, subs, batch, hparams,
                hat_weights=base_weights)

        fd = ad.finite_diff_gradient(value_with, t, step=1e-5)
        assert ad.max_relative_error(grads[t], fd) < 1e-3


def test_meta_step_moves_instance_term_downhill():
    ds, batch = tiny_fixture()
    dims = small_dims(2)
    state = fresh_state(dims, seed=4)
    # zero augmenter: every non-self weight starts at exactly 0.5
    state.sigma = lga.AugmenterParams.from_tensors(
        [ad.constant(np.zeros(t.shape)) for t in state.sigma.tensors()])
    hparams = hp(inner_lr=0.05, lam=0.0, augmenter_lr=1e-4)
    # the objective the step descends holds the stop-gradient view fixed
    base_weights = np.full((batch.n_edges, 1), 0.5)  # sigmoid(0)

    def instance_term():
        return _meta_objective_value(
            [t.data for t in state.phi.tensors()],
            [t.data for t in state.psi.tensors()],
            state.sigma.tensors(), batch, hparams,
            hat_weights=base_weights)

    before = instance_term()
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        tr.meta_step(state, batch, hparams)
    after = instance_term()
    assert after < before


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------

# primitive calls and tape nodes of one MUTAG contrast step, one ccl step
# (the unit view encoded once) and one meta step at batch 32, as ROADMAP's
# Baseline records them
STEP_CENSUS = {"contrast": (178, 58), "ccl": (118, 47), "meta": (630, 250)}


def _ones_or_identity(t):
    d = t.data
    return t.node_id is None and d.size > 1 and (
        np.all(d == 1.0) or (d.ndim == 2 and d.shape[0] == d.shape[1]
                             and np.array_equal(d, np.eye(d.shape[0]))))


def test_mutag_step_census_and_no_ones_matrix_operands(mutag, monkeypatch):
    ds = gd.build_node_features(mutag, "node-label-onehot")
    order = np.random.default_rng(0).permutation(len(ds.records))[:32]
    batch = gd.batch_graphs([ds.records[i] for i in order])
    state = tr.init_train_state(gnn.ModelDims(feature_dim=ds.feature_width), 0)
    calls = []
    forward = ad.primitive_forward

    def counting(kind, inputs, **extras):
        calls.append(kind)
        return forward(kind, inputs, **extras)

    monkeypatch.setattr(ad, "primitive_forward", counting)
    census = {}
    tape = ad.Tape()
    with ad.use_tape(tape):
        for kind, step in (("contrast", tr.contrast_step),
                           ("ccl", partial(tr.contrast_step,
                                           unit_weights=True)),
                           ("meta", tr.meta_step)):
            tape.reset()
            state.adopt_all(tape)
            calls.clear()
            step(state, batch, tr.Hyperparams())
            census[kind] = (len(calls), len(tape.nodes))
    assert census == STEP_CENSUS
    # no recorded node sums, broadcasts or masks through a ones or identity
    # matrix. What is left: unit edge and pooling weights, and feature_term's
    # identity target
    taking = Counter(node.kind for node in tape.nodes
                     if any(_ones_or_identity(t) for t in node.inputs))
    assert taking == {"weighted-aggregate": 12, "sub": 1}


def test_ccl_step_equals_the_two_encoding_contrast(mutag, monkeypatch):
    # the oracle: encode the unit view twice, as two independent tensors
    batch, state = _mutag_batch_and_state(mutag)
    hp = tr.Hyperparams()
    enc = state.phi.tensors() + state.psi.tensors()
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        z, z_aug = (tr._encode_project(batch, lga.unit_edge_weights(batch),
                                       state.phi, state.psi)
                    for _ in range(2))
        loss = losses.nt_xent(z, z_aug, hp.tau)
        grads = ad.backward(loss, enc)
        want_grads = [grads[t].data for t in enc]
        with tape.paused():
            terms = losses.mega_terms(losses.instance_corr(z, z_aug),
                                      losses.feature_corr(z, z_aug), hp.lam)
        want = {"step": "contrast", "l_contrast": loss.item(),
                **{name: t.item() for name, t in terms.items()}}

        kept = []
        backward = ad.backward

        def keeping(loss, params, **kwargs):
            g = backward(loss, params, **kwargs)
            kept.extend(g[t].data for t in params)
            return g

        monkeypatch.setattr(ad, "backward", keeping)
        tape.reset()
        state.adopt_all(tape)
        record = tr.contrast_step(state, batch, hp, True)
    assert record == want  # finite and nonzero, so == is bitwise
    assert len(kept) == len(want_grads)
    for got, ref in zip(kept, want_grads):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _mutag_batch_and_state(mutag):
    ds = gd.build_node_features(mutag, "node-label-onehot")
    order = np.random.default_rng(0).permutation(len(ds.records))[:32]
    batch = gd.batch_graphs([ds.records[i] for i in order])
    state = tr.init_train_state(gnn.ModelDims(feature_dim=ds.feature_width), 0)
    return batch, state


def _unfused_mlp_forward(x, p):
    """The perceptron as matmul, add and relu nodes: the oracle of dense."""
    h = ad.relu(ad.add(ad.matmul(x, p.w1), p.b1))
    return ad.add(ad.matmul(h, p.w2), p.b2)


def _steps_in_bytes(batch, state):
    """Bytes of the parameters after a contrast step and a meta step, of
    both records and of the meta-gradient, and the kinds on the tape."""
    grads = []
    gradients = tr.meta_gradients

    def keeping(*args, **kwargs):
        g, record = gradients(*args, **kwargs)
        grads.extend(g[t].data.tobytes() for t in args[2].tensors())
        return g, record

    out, kinds = [], set()
    tape = ad.Tape()
    with ad.use_tape(tape), pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "meta_gradients", keeping)
        for step in (tr.contrast_step, tr.meta_step):
            tape.reset()
            state.adopt_all(tape)
            out.append(step(state, batch, tr.Hyperparams()))
            out.append([t.data.tobytes() for t in state.all_tensors()])
            kinds |= {node.kind for node in tape.nodes}
    return out + [grads], kinds


def test_dense_steps_are_bitwise_the_unfused_perceptron(mutag, monkeypatch):
    batch, state = _mutag_batch_and_state(mutag)
    fused, fused_kinds = _steps_in_bytes(batch, state)
    batch, state = _mutag_batch_and_state(mutag)
    monkeypatch.setattr(gnn, "mlp_forward", _unfused_mlp_forward)
    unfused, unfused_kinds = _steps_in_bytes(batch, state)
    assert "dense" in fused_kinds and "relu" not in fused_kinds
    assert "relu" in unfused_kinds and "dense" not in unfused_kinds
    assert fused[-1] and fused == unfused


def test_dense_blocks_only_outputs_of_two_blocks_or_more(mutag, monkeypatch):
    # MUTAG's layers stay one product each; a large graph's 32-wide output
    # runs in 512-row blocks, the remainder joining the last
    batch, state = _mutag_batch_and_state(mutag)
    products = count_calls(monkeypatch, np, "matmul")
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        tr.meta_step(state, batch, tr.Hyperparams())
    n_dense = sum(node.kind == "dense" for node in tape.nodes)
    assert len(products) == n_dense == 34
    products.clear()
    rng = np.random.default_rng(0)
    ad.dense(ad.constant(rng.standard_normal((6400, 32))),
             ad.constant(rng.standard_normal((32, 32))),
             ad.constant(rng.standard_normal((1, 32))), relu=True)
    assert len(products) == 12


def _unfused_gin_layer_forward(batch, h, weights, layer):
    """The self term as its own add node: the oracle of the fused one."""
    agg = ad.add(ad.weighted_aggregate(h, weights, batch.adjacency), h)
    return gnn.mlp_forward(agg, layer)


def _training_in_bytes(ds, mode):
    state, log = tr.train(ds, tr.Hyperparams(epochs=1, batch_size=8),
                          mode=mode)
    # a float's repr round-trips, so equal reprs are equal bits
    return ([t.data.tobytes() for t in state.all_tensors()],
            repr(log.records), repr(log.summary))


@pytest.mark.parametrize("mode", ["mega", "ccl"])
def test_training_is_bitwise_the_unfused_self_term(mutag, monkeypatch, mode):
    ds = gd.build_node_features(mutag, "node-label-onehot")
    ds = gd.Dataset(ds.name, ds.records[:32], ds.n_classes)
    fused = _training_in_bytes(ds, mode)
    monkeypatch.setattr(gnn, "gin_layer_forward", _unfused_gin_layer_forward)
    calls = count_calls(monkeypatch, gnn, "gin_layer_forward")
    assert fused == _training_in_bytes(ds, mode)
    assert calls  # the oracle ran


def test_step_records_equal_the_term_by_term_evaluation(mutag, monkeypatch):
    batch, state = _mutag_batch_and_state(mutag)
    hp = tr.Hyperparams()
    seen = []
    terms = losses.mega_terms

    def keeping(inst, feat, lam):
        seen.append((inst, feat, lam))
        return terms(inst, feat, lam)

    monkeypatch.setattr(losses, "mega_terms", keeping)
    tape = ad.Tape()
    with ad.use_tape(tape):
        for step in (tr.contrast_step, tr.meta_step):
            tape.reset()
            state.adopt_all(tape)
            seen.clear()
            record = step(state, batch, hp)
            (c, d, lam), = seen
            assert lam == hp.lam
            with tape.paused():
                want = {"tr_c": losses.trace_sum(c).item(),
                        "de_c": losses.offdiag_sum(c).item(),
                        "feature_term": losses.feature_term(d).item(),
                        "l_mega": losses.mega_loss(c, d, lam).item()}
            got = {k: record[k] for k in want}
            assert got == want  # finite and nonzero, so == is bitwise
            assert set(record) == {"step", "l_contrast", *want}


def test_steps_and_embedding_sort_nothing(mutag, monkeypatch):
    # after a first touch has cached every graph's csr_edges; no primitive
    # sorts, and the edge-weight gradient gathers over the forward's pattern.
    # The closure sorts with the ndarray method, which the np counters do
    # not see, so its own calls are counted
    ds = gd.build_node_features(mutag, "node-label-onehot")
    order = np.random.default_rng(0).permutation(len(ds.records))[:32]
    records = [ds.records[i] for i in order]
    state = tr.init_train_state(gnn.ModelDims(feature_dim=ds.feature_width), 0)
    steps = {"contrast": tr.contrast_step,
             "ccl": partial(tr.contrast_step, unit_weights=True),
             "meta": tr.meta_step}
    tape = ad.Tape()

    def run(kind):
        if kind == "embed":
            return evaluation.embed_dataset(state.phi, ds)
        tape.reset()
        state.adopt_all(tape)
        steps[kind](state, gd.batch_graphs(records), tr.Hyperparams())

    with ad.use_tape(tape):
        for kind in ("contrast", "embed"):  # first touch of every topology
            run(kind)
        sorts = {}
        for kind in ("contrast", "ccl", "embed", "meta"):
            with monkeypatch.context() as mp:
                counted = [count_calls(mp, np, name) for name in
                           ("lexsort", "argsort", "sort", "take")]
                counted.append(count_calls(mp, gd, "undirected_closure"))
                run(kind)
            sorts[kind] = tuple(map(len, counted))
    # nor does any gather its weights into the matrix: they are aligned
    assert sorts == {"contrast": (0,) * 5, "ccl": (0,) * 5,
                     "embed": (0,) * 5, "meta": (0,) * 5}


def test_a_meta_step_writes_into_no_array_it_is_given(mutag, monkeypatch):
    # a transpose is a view of its input and a flagged matmul operand goes to
    # BLAS as one, so a write into any array would reach others. Through one
    # meta step (forward, create_graph backward, second backward and Adam)
    # every array a primitive takes or makes keeps the bytes it had when it
    # was first seen, and so do the parameters and the batch's features
    batch, state = _mutag_batch_and_state(mutag)
    seen = {}

    def digest(a):
        return hashlib.blake2b(a.tobytes(), digest_size=16).digest()

    def snapshot(kind, t):
        a = t.data if isinstance(t, ad.Tensor) else np.asarray(t)
        if id(a) not in seen:  # seen keeps a alive, so its id stays its own
            seen[id(a)] = (kind, a, digest(a))

    forward = ad.primitive_forward

    def snapshotting(kind, inputs, **extras):
        for t in inputs:
            snapshot(kind, t)
        out = forward(kind, inputs, **extras)
        snapshot(kind, out)
        return out

    monkeypatch.setattr(ad, "primitive_forward", snapshotting)
    fixed = [t.data for t in state.all_tensors()] + [batch.features]
    fixed_digests = [digest(a) for a in fixed]
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        tr.meta_step(state, batch, tr.Hyperparams())
    assert len(seen) > 600
    assert {kind for kind, a, d in seen.values() if digest(a) != d} == set()
    assert [digest(a) for a in fixed] == fixed_digests


def test_steps_run_on_an_edgeless_batch():
    # graphs without edges: the augmenter scores no edge
    rng = np.random.default_rng(5)
    recs = [gd.GraphRecord(gd.GraphTopology(n, ()), i % 2,
                           features=rng.uniform(0.5, 1.5, (n, 3)))
            for i, n in enumerate((2, 1, 3, 2))]
    batch = gd.batch_graphs(recs)
    assert batch.n_edges == 0
    state = fresh_state(small_dims(3), seed=2)
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        with tape.paused():
            assert lga.lga_edge_weights(batch, state.sigma).shape == (0, 1)
        phi_before = param_bytes(state.phi)
        contrast = tr.contrast_step(state, batch, hp())
        assert param_bytes(state.phi) != phi_before
        tape.reset()
        state.adopt_all(tape)
        sigma_before = param_bytes(state.sigma)
        meta = tr.meta_step(state, batch, hp())
    # no weight reaches the objective, so the meta-gradient is zero
    assert param_bytes(state.sigma) == sigma_before
    for record in (contrast, meta):
        assert all(np.isfinite(v) for k, v in record.items() if k != "step")


def test_every_primitive_output_is_float64_of_at_least_one_dimension(
        mutag, monkeypatch):
    batch, state = _mutag_batch_and_state(mutag)
    bad = []
    forward = ad.primitive_forward

    def checking(kind, inputs, **extras):
        out = forward(kind, inputs, **extras)
        if out.data.dtype != np.float64 or out.data.ndim < 1:
            bad.append((kind, out.data.dtype, out.data.ndim))
        return out

    monkeypatch.setattr(ad, "primitive_forward", checking)
    tape = ad.Tape()
    with ad.use_tape(tape):
        for step in (tr.contrast_step, tr.meta_step):
            tape.reset()
            state.adopt_all(tape)
            step(state, batch, tr.Hyperparams())
    assert bad == []


def test_alternation_schedule_c_m_c_m():
    ds = synthetic_dataset(n_per_class=8, seed=1)
    _, log = tr.train(ds, hp(epochs=1, batch_size=4), mode="mega")
    kinds = [r["step"] for r in log.records]
    assert len(kinds) == 4
    assert kinds == ["contrast", "meta", "contrast", "meta"]
    assert [r["iteration"] for r in log.records] == [0, 1, 2, 3]


def test_alternation_safety_parameters_mutate_on_their_iterations():
    ds = synthetic_dataset(n_per_class=6, seed=2)
    dims = small_dims(ds.feature_width)
    state = tr.init_train_state(dims, 0)
    hparams = hp(epochs=1, batch_size=6)
    rng = np.random.default_rng(0)
    tape = ad.Tape()
    with ad.use_tape(tape):
        for iteration in range(6):
            records = [ds.records[i]
                       for i in rng.permutation(len(ds.records))[:6]]
            batch = gd.batch_graphs(records)
            tape.reset()
            state.adopt_all(tape)
            phi_b = param_bytes(state.phi)
            psi_b = param_bytes(state.psi)
            sigma_b = param_bytes(state.sigma)
            if iteration % 2 == 0:
                tr.contrast_step(state, batch, hparams)
                assert param_bytes(state.sigma) == sigma_b
                assert param_bytes(state.phi) != phi_b
            else:
                tr.meta_step(state, batch, hparams)
                assert param_bytes(state.phi) == phi_b
                assert param_bytes(state.psi) == psi_b
                assert param_bytes(state.sigma) != sigma_b
            state.iteration += 1


def test_train_determinism_same_seed_identical_log():
    ds = synthetic_dataset(n_per_class=5, seed=7)
    _, log_a = tr.train(ds, hp(epochs=2, batch_size=5, seed=3), mode="mega")
    _, log_b = tr.train(ds, hp(epochs=2, batch_size=5, seed=3), mode="mega")
    assert log_a.records == log_b.records
    assert log_a.summary == log_b.summary


def test_training_hands_back_plain_constants():
    # Adam's outputs stay off the tape: the caller adopts them
    ds = synthetic_dataset(n_per_class=5, seed=7)
    state = fresh_state(small_dims(ds.feature_width))
    tape = ad.Tape()
    with ad.use_tape(tape):
        state.adopt_all(tape)
        enc = state.phi.tensors()
        grads = {t: ad.constant(np.ones(t.shape)) for t in enc}
        n_nodes = len(tape.nodes)
        stepped, _ = ad.adam_step(enc, grads, ad.AdamState(), lr=0.1)
    assert len(tape.nodes) == n_nodes
    assert all(t.node_id is None for t in stepped)
    # and train's state holds no id into the tape it discarded
    state, log = tr.train(ds, hp(epochs=1, batch_size=5), mode="mega")
    assert {r["step"] for r in log.records} == {"contrast", "meta"}
    assert all(t.node_id is None for t in state.all_tensors())


def test_train_rejects_bad_inputs():
    ds = synthetic_dataset(n_per_class=3)
    with pytest.raises(ConfigError):
        tr.train(ds, hp(batch_size=1))
    with pytest.raises(ConfigError):
        tr.train(ds, hp(), mode="gin-riu")
    empty = gd.Dataset("E", [], 0)
    with pytest.raises(DataError, match="no graphs"):
        tr.train(empty, hp())
    bare = gd.Dataset("B", [gd.GraphRecord(gd.GraphTopology(1, ()), 0)], 1)
    with pytest.raises(ConfigError):
        tr.train(bare, hp())
    # one graph forms no batch with a negative: refused, not left untrained
    tiny, _ = tiny_fixture()
    _, log = tr.train(tiny, hp(batch_size=2), small_dims(2))
    assert log.summary["iterations"] == 1
    one = gd.Dataset("ONE", tiny.records[:1], 2)
    with pytest.raises(ConfigError, match="at least 2 graphs"):
        tr.train(one, hp(batch_size=2), small_dims(2))


def test_train_refuses_a_feature_width_the_dims_do_not_take(monkeypatch):
    ds = synthetic_dataset(n_per_class=3)
    dims = gnn.ModelDims(feature_dim=ds.feature_width + 2)
    steps = []
    monkeypatch.setattr(tr, "contrast_step", lambda *a, **k: steps.append(a))
    with pytest.raises(ConfigError) as exc:
        tr.train(ds, hp(), dims)
    assert steps == []
    message = str(exc.value)
    assert "feature_dim" in message
    assert f"is {ds.feature_width + 2}" in message
    assert f"are {ds.feature_width} wide" in message


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), pytest.param(10**400, id="10**400"),
    pytest.param(-10**400, id="-10**400")])
@pytest.mark.parametrize("name", ["tau", "lam", "inner_lr", "encoder_lr",
                                  "augmenter_lr"])
def test_hyperparams_reject_non_finite(name, value):
    with pytest.raises(ConfigError, match=name):
        tr.Hyperparams(**{name: value})


@pytest.mark.parametrize("value", ["0.5", None, [1e-3], True, False])
@pytest.mark.parametrize("name", ["tau", "lam", "inner_lr", "encoder_lr",
                                  "augmenter_lr"])
def test_hyperparams_reject_rates_that_are_not_numbers(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an int or a float"):
        tr.Hyperparams(**{name: value})


@pytest.mark.parametrize("name,value", [
    ("epochs", 1.5), ("epochs", True), ("epochs", "2"),
    ("batch_size", 8.0), ("batch_size", False), ("batch_size", 1),
    ("seed", 1.5), ("seed", True), ("seed", -1)])
def test_hyperparams_reject_non_int_counts_and_negative_seed(name, value):
    with pytest.raises(ConfigError, match=name):
        tr.Hyperparams(**{name: value})


def test_mega_il_forces_lambda_zero():
    ds = synthetic_dataset(n_per_class=4, seed=4)
    _, log = tr.train(ds, hp(epochs=2, batch_size=8, lam=0.7), mode="mega-il")
    meta_records = [r for r in log.records if r["step"] == "meta"]
    assert meta_records
    for r in meta_records:
        # with lam = 0 the logged objective equals the pure instance term
        assert abs(r["l_mega"] - (r["tr_c"] - r["de_c"])) < 1e-9


def test_non_finite_loss_aborts_with_iteration_context():
    ds, batch = tiny_fixture()
    state = fresh_state(small_dims(2))
    # poison the projection head so features blow up to inf
    state.psi = gnn.MlpParams.from_tensors(
        [ad.constant(np.full(t.shape, 1e308)) for t in state.psi.tensors()])
    tape = ad.Tape()
    with ad.use_tape(tape), np.errstate(over="ignore", invalid="ignore",
                                        divide="ignore"):
        state.adopt_all(tape)
        with pytest.raises(NumericError) as exc:
            tr.contrast_step(state, batch, hp())
    assert "iteration" in str(exc.value)
