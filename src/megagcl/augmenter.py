"""The learnable graph augmenter: differentiable per-edge weights.

For every non-self directed edge (u, v) a small perceptron scores the
concatenated endpoint features [x_u ; x_v] and a sigmoid squashes the score
into a weight in (0, 1). Each direction is scored independently. Self-loop
weights are the constant 1 and never participate in the tape, so no node can
ever be fully disconnected. Scores are computed from raw input features, not
encoder state, so the augmenter's tape only meets the encoder's through the
losses.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import gnn
from .errors import ShapeError
from .graphdata import GraphBatch


class AugmenterParams(gnn.MlpParams):
    """Edge-scoring perceptron: 2F -> hidden -> 1."""


def lga_edge_weights(batch: GraphBatch, sigma: AugmenterParams):
    """Score every non-self directed edge; returns an (n_edges, 1) column.

    The leading ``batch.n_nonself`` entries are sigmoid scores on the tape
    (whenever sigma is); the trailing self-loop entries are constant 1.
    """
    f, n = batch.features, batch.n_nonself
    if sigma.w1.shape[0] != 2 * f.shape[1]:
        raise ShapeError("lga-edge-weights", [sigma.w1.shape],
                         f"augmenter expects 2*{f.shape[1]} input columns")
    ones_self = ad.constant(np.ones((batch.n_nodes, 1)))
    if n == 0:
        return ones_self
    xuv = ad.constant(np.concatenate([f[batch.edge_src[:n]],
                                      f[batch.edge_dst[:n]]], axis=1))
    # the features are one-hot, so each entry of xuv @ w1 sums exactly two
    # nonzero products 1.0 * w: every summation order rounds it the same
    return ad.concat_rows([ad.sigmoid(gnn.mlp_forward(xuv, sigma)), ones_self])


def unit_edge_weights(batch: GraphBatch):
    """The original view's weights: all ones, off the tape."""
    return ad.constant(np.ones((batch.n_edges, 1)))

