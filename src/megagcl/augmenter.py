"""The learnable graph augmenter: differentiable per-edge weights.

For every directed edge (u, v) of a batch a small perceptron scores the
concatenated endpoint features [x_u ; x_v] and a sigmoid squashes the score
into a weight in (0, 1). Each direction is scored independently. The batch
stores no self-loops: each GIN layer's aggregation adds a node's own row
with no weight (``gnn.gin_layer_forward``), so no node can ever be fully
disconnected. Scores are computed from raw input features, not encoder
state, so the augmenter's tape only meets the encoder's through the losses.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import gnn
from .graphdata import GraphBatch


AugmenterParams = gnn.MlpParams  # the edge scorer: 2F -> hidden -> 1


def lga_edge_weights(batch: GraphBatch, sigma: AugmenterParams):
    """Score every directed edge; returns an (n_edges, 1) column of sigmoid
    scores, on the tape whenever sigma is, aligned with the batch's edges
    in their CSR order. A scorer whose input width is not twice the
    feature width raises ``dense``'s ``ShapeError``."""
    f, edges = batch.features, batch.adjacency
    xuv = ad.constant(np.concatenate([f[edges.src], f[edges.dst]], axis=1))
    # the features are one-hot, so each entry of xuv @ w1 sums exactly two
    # nonzero products 1.0 * w: every summation order rounds it the same
    return ad.sigmoid(gnn.mlp_forward(xuv, sigma))


def unit_edge_weights(batch: GraphBatch):
    """The original view's weights: all ones, off the tape."""
    return ad.constant(np.ones((batch.n_edges, 1)))

