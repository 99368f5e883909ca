"""Contrastive and correlation losses over paired feature batches.

All functions take the original features z (N x D) and the augmented
features z' row-aligned with them, and stay on the tape end to end so the
meta step can differentiate through them.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import NumericError, ShapeError, require_real


def trace_sum(m):
    """tr(M) = sum_i M_ii."""
    return ad.reduce_sum(ad.diagonal(m))


def _trace_and_offdiag(m):
    """tr(M) and de(M), the latter as sum(M) - tr(M) on the same trace."""
    tr = trace_sum(m)
    return tr, ad.sub(ad.reduce_sum(m), tr)


def offdiag_sum(m):
    """de(M) = sum_i sum_{j != i} M_ij."""
    return _trace_and_offdiag(m)[1]


def _check_pair(kind, z, z_aug):
    if z.data.ndim != 2 or z_aug.data.ndim != 2 or z.shape != z_aug.shape:
        raise ShapeError(kind, [z.shape, z_aug.shape],
                         "feature batches must be equal 2-D shapes")


def nt_xent(z, z_aug, tau):
    """Temperature-scaled contrastive loss, averaged over anchors.

    For anchor i the positive is (z_i, z'_i); the negatives are the pairs
    (z_i, z'_j) and (z'_i, z_j) for j != i. Similarity is cosine. With a
    single pair there are no negatives and the loss is exactly 0. This is
    ``nt_xent_of_cosines`` over ``instance_corr(z, z_aug)``.
    """
    return nt_xent_of_cosines(instance_corr(z, z_aug), tau)


def nt_xent_of_cosines(sims, tau):
    """``nt_xent`` over its N x N cosine matrix ``sims`` (C_ij between z_i
    and z'_j), so a caller that also needs C builds it once."""
    require_real("tau", tau, zero_ok=False)
    scaled = ad.exp(ad.scalar_scale(sims, 1.0 / tau))
    row_tot = ad.sum_rows(scaled)
    # the column totals as a column, to add to the row totals
    col_tot = ad.sum_rows(ad.transpose(scaled))
    diag = ad.diagonal(scaled)
    # positive + all 2(n-1) negatives of anchor i, counted once each
    denom = ad.sub(ad.add(row_tot, col_tot), diag)
    pos = ad.diagonal(sims)
    per_anchor = ad.sub(ad.log(denom), ad.scalar_scale(pos, 1.0 / tau))
    return ad.reduce_mean(per_anchor)


def instance_corr(z, z_aug):
    """N x N matrix of cosine similarities between original and augmented
    features: C_ij = (z_i . z'_j) / (|z_i| |z'_j|). A zero row in either
    batch raises ``NumericError`` from the row normalisation."""
    _check_pair("instance-corr", z, z_aug)
    return ad.matmul(ad.l2_normalize_rows(z), ad.l2_normalize_rows(z_aug),
                     tb=True)


def feature_corr(z, z_aug):
    """Per-dimension correlation along the batch, uncentered:
    D_pq = sum_i z_ip z'_iq / (sqrt(sum_i z_ip^2) sqrt(sum_i z'_iq^2))."""
    _check_pair("feature-corr", z, z_aug)
    for tag, t in (("z", z), ("z'", z_aug)):
        norms = np.sqrt((t.data * t.data).sum(axis=0))
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise NumericError(
                f"feature-corr: zero-norm feature dimension {int(bad[0])} in {tag}")
    return ad.matmul(ad.l2_normalize_rows(ad.transpose(z)),
                     ad.l2_normalize_rows(ad.transpose(z_aug)), tb=True)


def feature_term(feat):
    """tr(elementwise (1-D)^2) + de(elementwise D^2): zero exactly when the
    feature correlation D is the identity."""
    eye = ad.constant(np.eye(feat.shape[0]))
    return ad.add(trace_sum(ad.square(ad.sub(eye, feat))),
                  offdiag_sum(ad.square(feat)))


def mega_terms(inst, feat, lam):
    """The scalar tensors ``tr_c`` (tr(C)), ``de_c`` (de(C)), ``feature_term``
    and ``l_mega`` = tr(C) - de(C) + lam * feature_term, keyed by those
    names and each computed once; ``l_mega`` is bitwise ``mega_loss``'s.

    The instance term tr(C) - de(C) is lowest when every positive pair is
    far apart and every pair of distinct instances is close (the
    hard-example direction)."""
    require_real("lam", lam, zero_ok=True)
    for m in (inst, feat):
        if m.data.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError("mega-loss", [m.shape], "expected a square matrix")
    tr_c, de_c = _trace_and_offdiag(inst)
    feat_term = feature_term(feat)
    return {"tr_c": tr_c, "de_c": de_c, "feature_term": feat_term,
            "l_mega": ad.add(ad.sub(tr_c, de_c),
                             ad.scalar_scale(feat_term, lam))}


def mega_loss(inst, feat, lam):
    """Combined objective over the two correlation matrices: ``l_mega`` of
    ``mega_terms``, whose instance term pushes positives apart and distinct
    instances together while the feature term (see ``feature_term``) pulls
    D toward the identity. ``lam`` balances the two.
    """
    return mega_terms(inst, feat, lam)["l_mega"]
