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
from .errors import ShapeError
from .graphdata import GraphBatch
from .gnn import MlpParams


class AugmenterParams(MlpParams):
    """Edge-scoring perceptron: 2F -> hidden -> 1."""


def lga_edge_weights(batch: GraphBatch, sigma: AugmenterParams):
    """Score every non-self directed edge; returns an (n_edges, 1) column.

    The leading ``batch.n_nonself`` entries are sigmoid scores on the tape
    (whenever sigma is); the trailing self-loop entries are constant 1.
    """
    width = batch.features.shape[1]
    if sigma.w1.shape[0] != 2 * width:
        raise ShapeError("lga-edge-weights", [sigma.w1.shape],
                         f"augmenter expects 2*{width} input columns")
    ones_self = ad.constant(np.ones((batch.n_nodes, 1)))
    if batch.n_nonself == 0:
        return ones_self
    x = ad.constant(batch.features)
    src_x = ad.gather_rows(x, batch.edge_src[:batch.n_nonself])
    dst_x = ad.gather_rows(x, batch.edge_dst[:batch.n_nonself])
    # [x_u ; x_v] @ w1 without a column concat: split w1 into its top and
    # bottom halves and sum the two products
    w_top = ad.gather_rows(sigma.w1, np.arange(width))
    w_bot = ad.gather_rows(sigma.w1, np.arange(width, 2 * width))
    pre = ad.add(ad.add(ad.matmul(src_x, w_top), ad.matmul(dst_x, w_bot)),
                 sigma.b1)
    logits = ad.add(ad.matmul(ad.relu(pre), sigma.w2), sigma.b2)
    return ad.concat_rows([ad.sigmoid(logits), ones_self])


def unit_edge_weights(batch: GraphBatch):
    """The original view's weights: all ones, off the tape."""
    return ad.constant(np.ones((batch.n_edges, 1)))

