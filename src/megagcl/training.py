"""Alternating bilevel training.

Even iterations train the encoder and projection head by backpropagating the
contrastive loss through a frozen augmenter; odd iterations train the
augmenter by differentiating the combined correlation objective through a
one-step virtual update of the encoder (gradients of gradients on the tape).
One iteration is one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import augmenter as lga
from . import gnn
from . import losses
from .errors import (ConfigError, DataError, NumericError, require_count,
                     require_real)
from .graphdata import Dataset, batch_graphs

TRAINING_MODES = ("mega", "mega-il", "ccl")


@dataclass
class Hyperparams:
    """Training settings, checked when made; ``batch_size`` is at least 2."""

    tau: float = 0.5
    lam: float = 0.1
    inner_lr: float = 1e-3      # virtual-step rate shared by encoder and head
    encoder_lr: float = 1e-3
    augmenter_lr: float = 1e-4
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("tau", "encoder_lr", "augmenter_lr"):
            require_real(name, getattr(self, name), zero_ok=False)
        for name in ("lam", "inner_lr"):
            require_real(name, getattr(self, name), zero_ok=True)
        require_count("epochs", self.epochs, 1)
        require_count("batch_size", self.batch_size, 2)
        require_count("seed", self.seed, 0)


@dataclass
class MetricsLog:
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


@dataclass
class TrainState:
    phi: gnn.EncoderParams
    psi: gnn.MlpParams
    sigma: lga.AugmenterParams
    enc_opt: ad.AdamState
    aug_opt: ad.AdamState
    iteration: int = 0

    def all_tensors(self):
        return (self.phi.tensors() + self.psi.tensors()
                + self.sigma.tensors())

    def adopt_all(self, tape: ad.Tape):
        for t in self.all_tensors():
            tape.adopt(t)


def init_train_state(dims: gnn.ModelDims, seed) -> TrainState:
    phi, psi, sigma = gnn.init_params(dims, seed)
    return TrainState(phi, psi, sigma, ad.AdamState(), ad.AdamState())


def _encode_project(batch, weights, phi, psi):
    return gnn.project(gnn.readout(batch, gnn.encode(batch, weights, phi)),
                       psi)


def _split_encoder_tensors(phi, tensors):
    n_phi = len(phi.tensors())
    return (gnn.EncoderParams.from_tensors(tensors[:n_phi]),
            gnn.MlpParams.from_tensors(tensors[n_phi:]))


def _require_finite(value, what, iteration):
    if not np.isfinite(value):
        raise NumericError(f"{what} is not finite at iteration {iteration}: "
                           f"{value}")


def _contrast(batch, weights, phi, psi, hp, iteration):
    """Encode the unit-weight view and the ``weights`` view, and return both
    projections, their cosine matrix and their NT-Xent loss over it, checked
    finite. With ``weights`` None the second view is the unit view itself:
    it is encoded once and both projections are the same tensor."""
    z = _encode_project(batch, lga.unit_edge_weights(batch), phi, psi)
    z_aug = z if weights is None else _encode_project(batch, weights, phi, psi)
    sims = losses.instance_corr(z, z_aug)
    loss = losses.nt_xent_of_cosines(sims, hp.tau)
    _require_finite(loss.item(), "contrastive loss", iteration)
    return z, z_aug, sims, loss


def _step_record(step, l_contrast, terms):
    """A step's log record: its contrastive loss and the ``mega_terms``."""
    return {"step": step, "l_contrast": l_contrast.item(),
            **{name: t.item() for name, t in terms.items()}}


def contrast_step(state: TrainState, batch, hp: Hyperparams,
                  unit_weights=False):
    """Adam-update the encoder and head on the contrastive loss.

    The augmenter drives the second view but scores it with the tape
    paused, so its weights are constants; it is bitwise untouched here.
    With ``unit_weights`` (mode ``ccl``) the unit view is contrasted with
    itself: it is encoded once, and its projection is both views.
    """
    tape = ad.active_tape()
    weights = None
    if not unit_weights:
        with tape.paused():
            weights = lga.lga_edge_weights(batch, state.sigma)
    z, z_aug, sims, loss = _contrast(batch, weights, state.phi, state.psi,
                                     hp, state.iteration)

    enc_tensors = state.phi.tensors() + state.psi.tensors()
    grads = ad.backward(loss, enc_tensors)
    new_tensors, state.enc_opt = ad.adam_step(enc_tensors, grads,
                                              state.enc_opt, hp.encoder_lr)
    state.phi, state.psi = _split_encoder_tensors(state.phi, new_tensors)

    with tape.paused():
        terms = losses.mega_terms(sims, losses.feature_corr(z, z_aug), hp.lam)
    return _step_record("contrast", loss, terms)


def meta_gradients(phi, psi, sigma, batch, hp: Hyperparams, iteration=0):
    """Gradient of the meta objective with respect to the augmenter.

    Pipeline: (1) score edge weights with sigma on the tape; (2) contrastive
    loss under the current encoder/head; (3) differentiable gradients of that
    loss give one virtual SGD step for encoder and head; (4) re-encode the
    original view and the stop-gradient augmented view under the virtual
    parameters; (5) the correlation objective there is differentiated back
    through (3)'s gradients into sigma.
    """
    weights = lga.lga_edge_weights(batch, sigma)
    *_, l_contrast = _contrast(batch, weights, phi, psi, hp, iteration)

    enc_tensors = phi.tensors() + psi.tensors()
    enc_grads = ad.backward(l_contrast, enc_tensors, create_graph=True)
    virtual = ad.sgd_virtual_step(enc_tensors, enc_grads, hp.inner_lr)
    phi_v, psi_v = _split_encoder_tensors(phi, virtual)

    hat_weights = ad.detach(weights)
    z_meta = _encode_project(batch, lga.unit_edge_weights(batch), phi_v, psi_v)
    z_aug_meta = _encode_project(batch, hat_weights, phi_v, psi_v)
    terms = losses.mega_terms(losses.instance_corr(z_meta, z_aug_meta),
                              losses.feature_corr(z_meta, z_aug_meta), hp.lam)
    l_mega = terms["l_mega"]
    _require_finite(l_mega.item(), "meta objective", iteration)

    sigma_tensors = sigma.tensors()
    grads = ad.backward(l_mega, sigma_tensors)
    norms = [float(np.linalg.norm(grads[t].data)) for t in sigma_tensors]
    if not all(np.isfinite(norms)):
        raise NumericError(
            f"non-finite meta-gradient at iteration {iteration}; "
            f"gradient norms {norms}")
    return grads, _step_record("meta", l_contrast, terms)


def meta_step(state: TrainState, batch, hp: Hyperparams):
    """Adam-update the augmenter on the meta objective; the encoder and head
    are bitwise untouched."""
    grads, record = meta_gradients(state.phi, state.psi, state.sigma, batch,
                                   hp, state.iteration)
    sigma_tensors = state.sigma.tensors()
    new_sigma, state.aug_opt = ad.adam_step(sigma_tensors, grads,
                                            state.aug_opt, hp.augmenter_lr)
    state.sigma = lga.AugmenterParams.from_tensors(new_sigma)
    return record


def require_features(dataset: Dataset):
    """Raise ``DataError`` for a dataset without graphs and ``ConfigError``
    for one without node features: either way there is nothing to encode."""
    if not dataset.records:
        raise DataError(f"{dataset.name}: the dataset holds no graphs")
    if dataset.feature_width is None:
        raise ConfigError(f"{dataset.name}: the dataset needs node features")


def _iter_batches(dataset, rng, batch_size):
    order = rng.permutation(len(dataset.records))
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        if len(chunk) < 2:
            continue  # the contrastive loss needs at least one negative
        yield [dataset.records[i] for i in chunk]


def train(dataset: Dataset, hp: Hyperparams, dims: gnn.ModelDims = None,
          mode="mega"):
    """Run the alternating schedule for the configured number of epochs.

    Modes: ``mega`` alternates contrast and meta steps strictly 1:1;
    ``mega-il`` is the same with the feature term off (lam = 0); ``ccl``
    takes a contrast step on every batch, contrasting the unit-weight view
    with itself and encoding it once (the plain contrastive baseline).
    ``hp.batch_size`` is at least 2, as ``Hyperparams`` ensures. Returns the
    final TrainState (its ``phi`` is the encoder; head and augmenter ride
    along), its tensors constants off any tape, and the metrics log.
    """
    if mode not in TRAINING_MODES:
        raise ConfigError(f"unknown training mode: {mode!r}")
    require_features(dataset)
    if len(dataset.records) < 2:
        raise ConfigError(f"{dataset.name}: training needs at least 2 graphs "
                          "(the contrastive loss needs negatives)")
    if mode == "mega-il":
        hp = replace(hp, lam=0.0)

    dims = dims or gnn.ModelDims(feature_dim=dataset.feature_width)
    if dims.feature_dim != dataset.feature_width:
        raise ConfigError(
            f"dims.feature_dim is {dims.feature_dim} but {dataset.name}'s "
            f"node features are {dataset.feature_width} wide")
    state = init_train_state(dims, hp.seed)
    rng = np.random.default_rng(hp.seed)
    log = MetricsLog()

    tape = ad.Tape()
    with ad.use_tape(tape):
        for epoch in range(hp.epochs):
            for records in _iter_batches(dataset, rng, hp.batch_size):
                tape.reset()
                state.adopt_all(tape)
                batch = batch_graphs(records)
                if mode == "ccl" or state.iteration % 2 == 0:
                    record = contrast_step(state, batch, hp,
                                           unit_weights=(mode == "ccl"))
                else:
                    record = meta_step(state, batch, hp)
                record.update(iteration=state.iteration, epoch=epoch,
                              n_graphs=batch.n_graphs)
                log.records.append(record)
                state.iteration += 1
    # hand back constants: the last adoption's ids point into a dead tape
    for t in state.all_tensors():
        t.node_id = None

    last = log.records[-1] if log.records else {}
    log.summary = {
        "mode": mode,
        "seed": hp.seed,
        "epochs": hp.epochs,
        "iterations": state.iteration,
        "final_l_contrast": last.get("l_contrast"),
        "final_l_mega": last.get("l_mega"),
    }
    return state, log
