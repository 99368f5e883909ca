"""GIN-style message-passing encoder over edge-weighted aggregation.

Each layer computes, for node v, MLP((1+eps) * H_v + sum_{u->v} w_uv * H_u)
with eps fixed at 0: one sparse weighted aggregation over the batch's edges
that adds H itself as the self term, (A_w + I) @ H. Readout is a per-graph
sum, the same aggregation with unit weights from nodes to their graphs.
Both aggregate over the sparse patterns ``graphdata.batch_graphs`` builds
with the batch (``GraphBatch.adjacency`` and ``GraphBatch.pooling``), so
every layer and view over one batch reuses them, read-only, with its own
weights. Building them sorts nothing: the batch's edges come in CSR order,
by target, from each graph's undirected closure, computed once in that
order (``GraphTopology.csr_edges``), and its nodes ascend by graph. Backward
passes run the transposed products over the same patterns' arrays, building
nothing.

Each layer's perceptron, the projection head and the augmenter's edge scorer
are the same two-layer perceptron, ``mlp_forward``: two ``autodiff.dense``
nodes, the first through a relu, so each layer of it is one tape node and
one array.

Which of these nodes share their work with the row pool, and when, is
said in ``autodiff``'s module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .errors import ShapeError, require_count
from .graphdata import GraphBatch


@dataclass
class MlpParams:
    """Two-layer perceptron: x @ w1 + b1, relu, @ w2 + b2."""

    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor

    def tensors(self):
        return [self.w1, self.b1, self.w2, self.b2]

    @classmethod
    def from_tensors(cls, ts):
        return cls(*ts)


@dataclass
class EncoderParams:
    layers: list

    def tensors(self):
        return [t for layer in self.layers for t in layer.tensors()]

    @classmethod
    def from_tensors(cls, ts):
        if len(ts) % 4:
            raise ShapeError("encoder-params", [], f"{len(ts)} tensors")
        return cls([MlpParams.from_tensors(ts[i:i + 4])
                    for i in range(0, len(ts), 4)])


@dataclass(frozen=True)
class ModelDims:
    """Architecture defaults sized for desk-scale CPU runs."""

    feature_dim: int
    hidden: int = 32
    layers: int = 3
    proj_dim: int = 32
    aug_hidden: int = 16

    def __post_init__(self):
        for f in fields(self):
            require_count(f.name, getattr(self, f.name), 1)


def mlp_forward(x, p: MlpParams):
    return ad.dense(ad.dense(x, p.w1, p.b1, relu=True), p.w2, p.b2)


def gin_layer_forward(batch: GraphBatch, h, weights, layer: MlpParams):
    """One message-passing round with per-edge weights: the perceptron of
    (A_w + I) @ h, the weighted neighbour sum plus the self term.

    ``weights`` is an (n_edges, 1) column aligned with the batch's edges,
    which are stored in CSR order; no weight belongs to a node itself.
    An ``h`` without one row per node, or a misaligned ``weights``, raises
    ``weighted-aggregate``'s ``ShapeError``.
    """
    return mlp_forward(ad.weighted_aggregate(h, weights, batch.adjacency,
                                             self_term=True), layer)


def encode(batch: GraphBatch, weights, phi: EncoderParams):
    """K rounds of message passing; returns the final node matrix."""
    h = ad.constant(batch.features)
    for layer in phi.layers:
        h = gin_layer_forward(batch, h, weights, layer)
    return h


def readout(batch: GraphBatch, h):
    """Sum-pool node rows into one row per graph."""
    return ad.weighted_aggregate(h, ad.constant(np.ones((batch.n_nodes, 1))),
                                 batch.pooling)


def project(h, psi: MlpParams):
    """Map pooled representations to contrastive features (no normalization
    here; cosine similarity normalizes later). A width that does not match
    the head's raises ``dense``'s ``ShapeError``."""
    return mlp_forward(h, psi)


def _xavier(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _init_mlp(rng, d_in, d_hidden, d_out):
    return MlpParams(
        w1=ad.constant(_xavier(rng, d_in, d_hidden)),
        b1=ad.constant(np.zeros((1, d_hidden))),
        w2=ad.constant(_xavier(rng, d_hidden, d_out)),
        b2=ad.constant(np.zeros((1, d_out))),
    )


def init_params(dims: ModelDims, seed):
    """Deterministic parameter init for encoder, projection head, augmenter.

    Weights are uniform within +-sqrt(6 / (fan_in + fan_out)); biases zero.
    Returned tensors are detached constants; the training loop adopts them
    onto its tape.
    """
    require_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    layers = []
    d_in = dims.feature_dim
    for _ in range(dims.layers):
        layers.append(_init_mlp(rng, d_in, dims.hidden, dims.hidden))
        d_in = dims.hidden
    phi = EncoderParams(layers)
    psi = _init_mlp(rng, dims.hidden, dims.hidden, dims.proj_dim)
    sigma = _init_mlp(rng, 2 * dims.feature_dim, dims.aug_hidden, 1)
    return phi, psi, sigma
