import numpy as np
import pytest

from megagcl import autodiff as ad
from megagcl import losses
from megagcl.errors import ConfigError, NumericError, ShapeError


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def cosine_matrix_loops(z, zp):
    n = z.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = z[i] @ zp[j] / (np.linalg.norm(z[i]) * np.linalg.norm(zp[j]))
    return out


def feature_corr_loops(z, zp):
    d = z.shape[1]
    out = np.empty((d, d))
    for p in range(d):
        for q in range(d):
            out[p, q] = (z[:, p] @ zp[:, q]) / (
                np.sqrt((z[:, p] ** 2).sum()) * np.sqrt((zp[:, q] ** 2).sum()))
    return out


def mega_loss_loops(c, d, lam):
    n = c.shape[0]
    nd = d.shape[0]
    inst = sum(c[i, i] for i in range(n)) - sum(
        c[i, j] for i in range(n) for j in range(n) if i != j)
    feat = sum((1.0 - d[p, p]) ** 2 for p in range(nd)) + sum(
        d[p, q] ** 2 for p in range(nd) for q in range(nd) if p != q)
    return inst + lam * feat


def nt_xent_loops(z, zp, tau):
    n = z.shape[0]
    sims = cosine_matrix_loops(z, zp)
    total = 0.0
    for i in range(n):
        pos = np.exp(sims[i, i] / tau)
        negs = sum(np.exp(sims[i, j] / tau) for j in range(n) if j != i)
        negs += sum(np.exp(sims[j, i] / tau) for j in range(n) if j != i)
        total += -np.log(pos / (pos + negs))
    return total / n


def nt_xent_ones_matrix_form(z, zp, tau):
    """``nt_xent`` as written with explicit transposes and ones and identity
    matrices, before the flagged product and the sum primitives."""
    n = z.shape[0]
    sims = ad.matmul(ad.l2_normalize_rows(z),
                     ad.transpose(ad.l2_normalize_rows(zp)))
    scaled = ad.exp(ad.scalar_scale(sims, 1.0 / tau))
    eye = ad.constant(np.eye(n))
    ones = ad.constant(np.ones((n, 1)))
    row_tot = ad.matmul(scaled, ones)
    col_tot = ad.matmul(ad.transpose(scaled), ones)
    diag = ad.matmul(ad.mul(scaled, eye), ones)
    denom = ad.sub(ad.add(row_tot, col_tot), diag)
    pos = ad.matmul(ad.mul(sims, eye), ones)
    per_anchor = ad.sub(ad.log(denom), ad.scalar_scale(pos, 1.0 / tau))
    return ad.reduce_mean(per_anchor)


def instance_corr_transpose_form(z, zp):
    return ad.matmul(ad.l2_normalize_rows(z),
                     ad.transpose(ad.l2_normalize_rows(zp)))


def feature_corr_transpose_form(z, zp):
    return ad.matmul(ad.l2_normalize_rows(ad.transpose(z)),
                     ad.transpose(ad.l2_normalize_rows(ad.transpose(zp))))


# ---------------------------------------------------------------------------
# trace / offdiag
# ---------------------------------------------------------------------------

def test_trace_and_offdiag_identity(tape):
    eye = ad.constant(np.eye(3))
    assert losses.trace_sum(eye).item() == 3.0
    assert losses.offdiag_sum(eye).item() == 0.0


def test_trace_and_offdiag_all_ones(tape):
    ones = ad.constant(np.ones((3, 3)))
    assert losses.trace_sum(ones).item() == 3.0
    assert losses.offdiag_sum(ones).item() == 6.0


def test_trace_offdiag_random_vs_loops(tape):
    m = np.random.default_rng(0).standard_normal((4, 4))
    t = losses.trace_sum(ad.constant(m)).item()
    d = losses.offdiag_sum(ad.constant(m)).item()
    assert abs(t - sum(m[i, i] for i in range(4))) < 1e-12
    assert abs(d - sum(m[i, j] for i in range(4) for j in range(4) if i != j)) < 1e-12


def test_trace_rejects_non_square(tape):
    with pytest.raises(ShapeError):
        losses.trace_sum(ad.constant(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# nt-xent
# ---------------------------------------------------------------------------

def test_nt_xent_single_pair_is_zero(tape):
    z = ad.constant([[1.0, 2.0]])
    assert abs(losses.nt_xent(z, z, 0.5).item()) < 1e-12


def test_nt_xent_two_orthonormal_pairs_closed_form(tape):
    z = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    got = losses.nt_xent(z, z, 1.0).item()
    want = -np.log(np.e / (np.e + 2.0))
    assert abs(got - want) < 1e-12
    assert abs(want - 0.5514) < 1e-4


def test_nt_xent_matches_loop_oracle(tape):
    rng = np.random.default_rng(4)
    z = rng.standard_normal((5, 3))
    zp = rng.standard_normal((5, 3))
    got = losses.nt_xent(ad.constant(z), ad.constant(zp), 0.5).item()
    assert abs(got - nt_xent_loops(z, zp, 0.5)) < 1e-12


def test_nt_xent_nonnegative(tape):
    rng = np.random.default_rng(8)
    for _ in range(5):
        z = rng.standard_normal((4, 6))
        zp = rng.standard_normal((4, 6))
        assert losses.nt_xent(ad.constant(z), ad.constant(zp), 0.5).item() >= 0.0


def test_nt_xent_invariant_to_row_rescaling(tape):
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 5))
    zp = rng.standard_normal((4, 5))
    base = losses.nt_xent(ad.constant(z), ad.constant(zp), 0.5).item()
    scaled = losses.nt_xent(ad.constant(z * 7.3), ad.constant(zp * 0.02),
                            0.5).item()
    assert abs(base - scaled) < 1e-10


def test_nt_xent_errors(tape):
    z = ad.constant(np.ones((2, 2)))
    with pytest.raises(ConfigError):
        losses.nt_xent(z, z, 0.0)
    zero_row = ad.constant([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericError) as exc:
        losses.nt_xent(z, zero_row, 0.5)
    assert "row 1" in str(exc.value)


def _value_and_gradient_bytes(fn, z0, zp0):
    """Bytes of the loss (a weighted sum for a matrix result) and of its
    first-order and ``create_graph`` gradients in both feature batches."""
    out = []
    weights = np.random.default_rng(9).standard_normal((z0.shape[1],) * 2)
    for create_graph in (False, True):
        with ad.use_tape(ad.Tape()):
            z, zp = ad.variable(z0.copy()), ad.variable(zp0.copy())
            value = fn(z, zp)
            if value.shape != (1,):
                value = ad.reduce_sum(ad.mul(
                    value, ad.constant(weights[:value.shape[0],
                                               :value.shape[1]])))
            grads = ad.backward(value, [z, zp], create_graph=create_graph)
            out += [value.data.tobytes(), grads[z].data.tobytes(),
                    grads[zp].data.tobytes()]
    return out


@pytest.mark.parametrize("fn,reference", [
    (lambda z, zp: losses.nt_xent(z, zp, 0.5),
     lambda z, zp: nt_xent_ones_matrix_form(z, zp, 0.5)),
    (losses.instance_corr, instance_corr_transpose_form),
    (losses.feature_corr, feature_corr_transpose_form),
], ids=["nt-xent", "instance-corr", "feature-corr"])
def test_losses_are_bitwise_their_transpose_and_ones_matrix_forms(
        fn, reference):
    rng = np.random.default_rng(8)
    z0, zp0 = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
    assert _value_and_gradient_bytes(fn, z0, zp0) == \
        _value_and_gradient_bytes(reference, z0, zp0)


def test_nt_xent_gradients_match_finite_differences(tape):
    rng = np.random.default_rng(11)
    z = ad.variable(rng.standard_normal((4, 5)))
    zp = ad.variable(rng.standard_normal((4, 5)))
    loss = losses.nt_xent(z, zp, 0.5)
    grads = ad.backward(loss, [z, zp])
    fd_z = ad.finite_diff_gradient(
        lambda t: losses.nt_xent(t, zp, 0.5).item(), z)
    fd_zp = ad.finite_diff_gradient(
        lambda t: losses.nt_xent(z, t, 0.5).item(), zp)
    assert ad.max_relative_error(grads[z], fd_z) < 1e-4
    assert ad.max_relative_error(grads[zp], fd_zp) < 1e-4
    # one tensor feeding both arguments, as mode ccl's single view does:
    # the tape must sum the two arguments' gradients into it
    zz = ad.variable(rng.standard_normal((4, 5)))
    g_zz = ad.backward(losses.nt_xent(zz, zz, 0.5), [zz])[zz]
    fd_zz = ad.finite_diff_gradient(
        lambda t: losses.nt_xent(t, t, 0.5).item(), zz)
    assert ad.max_relative_error(g_zz, fd_zz) < 1e-4


# ---------------------------------------------------------------------------
# correlation matrices
# ---------------------------------------------------------------------------

def test_instance_corr_orthonormal_identity(tape):
    z = ad.constant(np.eye(3))
    np.testing.assert_allclose(losses.instance_corr(z, z).data, np.eye(3),
                               atol=1e-12)


def test_instance_corr_negated_diagonal(tape):
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 3))
    c = losses.instance_corr(ad.constant(z), ad.constant(-z))
    np.testing.assert_allclose(np.diag(c.data), -np.ones(4), atol=1e-12)


def test_instance_corr_matches_loops(tape):
    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 4))
    zp = rng.standard_normal((3, 4))
    got = losses.instance_corr(ad.constant(z), ad.constant(zp)).data
    np.testing.assert_allclose(got, cosine_matrix_loops(z, zp), atol=1e-12)
    assert np.all(np.abs(got) <= 1.0 + 1e-12)


def test_feature_corr_identity_for_orthogonal_columns(tape):
    z = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    d = losses.feature_corr(ad.constant(z), ad.constant(z))
    np.testing.assert_allclose(d.data, np.eye(2), atol=1e-12)


def test_feature_corr_duplicate_column_gives_unit_offdiagonal(tape):
    rng = np.random.default_rng(6)
    col = rng.standard_normal((5, 1))
    z = np.hstack([col, col, rng.standard_normal((5, 1))])
    d = losses.feature_corr(ad.constant(z), ad.constant(z)).data
    assert abs(d[0, 1] - 1.0) < 1e-12 and abs(d[1, 0] - 1.0) < 1e-12


def test_feature_corr_matches_loops(tape):
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 3))
    zp = rng.standard_normal((5, 3))
    got = losses.feature_corr(ad.constant(z), ad.constant(zp)).data
    np.testing.assert_allclose(got, feature_corr_loops(z, zp), atol=1e-12)


def test_feature_corr_zero_column_names_dimension(tape):
    z = np.ones((4, 3))
    zp = z.copy()
    zp[:, 2] = 0.0
    with pytest.raises(NumericError) as exc:
        losses.feature_corr(ad.constant(z), ad.constant(zp))
    assert "dimension 2" in str(exc.value)


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
def test_mega_loss_on_identities_equals_n(tape, n, lam):
    c = ad.constant(np.eye(n))
    d = ad.constant(np.eye(n + 1))
    assert abs(losses.mega_loss(c, d, lam).item() - n) < 1e-12


def test_mega_loss_lambda_zero_is_instance_only(tape):
    rng = np.random.default_rng(9)
    c = rng.standard_normal((3, 3))
    d = rng.standard_normal((4, 4))
    got = losses.mega_loss(ad.constant(c), ad.constant(d), 0.0).item()
    inst = sum(c[i, i] for i in range(3)) - sum(
        c[i, j] for i in range(3) for j in range(3) if i != j)
    assert abs(got - inst) < 1e-12
    terms = losses.mega_terms(ad.constant(c), ad.constant(d), 0.0)
    assert ad.sub(terms["tr_c"], terms["de_c"]).item() == got


def test_mega_loss_matches_loop_oracle(tape):
    rng = np.random.default_rng(10)
    c = rng.standard_normal((3, 3))
    d = rng.standard_normal((4, 4))
    for lam in (0.0, 0.3, 1.0):
        got = losses.mega_loss(ad.constant(c), ad.constant(d), lam).item()
        assert abs(got - mega_loss_loops(c, d, lam)) < 1e-12
        terms = losses.mega_terms(ad.constant(c), ad.constant(d), lam)
        parts = (ad.sub(terms["tr_c"], terms["de_c"]).item()
                 + losses.feature_term(ad.constant(d)).item() * lam)
        assert got == parts


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.7, 3.0])
def test_mega_terms_bitwise_equal_the_separate_evaluations(tape, lam):
    rng = np.random.default_rng(14)
    c = ad.constant(rng.standard_normal((6, 6)))
    d = ad.constant(rng.standard_normal((5, 5)))
    terms = losses.mega_terms(c, d, lam)
    assert list(terms) == ["tr_c", "de_c", "feature_term", "l_mega"]
    separate = {"tr_c": losses.trace_sum(c), "de_c": losses.offdiag_sum(c),
                "feature_term": losses.feature_term(d),
                "l_mega": losses.mega_loss(c, d, lam)}
    for name, t in terms.items():
        assert t.shape == (1,)
        assert t.data.tobytes() == separate[name].data.tobytes(), name


def test_mega_loss_errors(tape):
    sq = ad.constant(np.eye(2))
    with pytest.raises(ConfigError):
        losses.mega_loss(sq, sq, -0.1)
    with pytest.raises(ShapeError):
        losses.mega_loss(ad.constant(np.ones((2, 3))), sq, 0.1)


def test_instance_term_gradient_points_to_hard_examples(tape):
    # dL/dC_ii > 0 (push positives apart), dL/dC_ij < 0 for i != j
    rng = np.random.default_rng(12)
    c = ad.variable(rng.uniform(-0.5, 0.5, size=(3, 3)))
    d = ad.constant(np.eye(2))
    loss = losses.mega_loss(c, d, 0.0)
    g = ad.backward(loss, [c])[c].data
    assert np.all(np.diag(g) > 0)
    off = g[~np.eye(3, dtype=bool)]
    assert np.all(off < 0)


def test_feature_term_zero_iff_identity(tape):
    eye = np.eye(4)
    c = ad.constant(np.eye(2))
    base = losses.mega_loss(c, ad.constant(eye), 1.0).item()
    ref = losses.mega_loss(c, ad.constant(eye), 0.0).item()
    assert abs(base - ref) < 1e-12  # feature term exactly zero at identity
    for _ in range(5):
        bump = np.random.default_rng(_).normal(scale=0.05, size=(4, 4))
        perturbed = losses.mega_loss(c, ad.constant(eye + bump), 1.0).item()
        assert perturbed > ref + 1e-9


def test_mega_loss_gradients_match_finite_differences(tape):
    rng = np.random.default_rng(13)
    z = ad.variable(rng.standard_normal((4, 5)))
    zp = ad.variable(rng.standard_normal((4, 5)))

    def full(tz, tzp):
        return losses.mega_loss(losses.instance_corr(tz, tzp),
                                losses.feature_corr(tz, tzp), 0.3)

    grads = ad.backward(full(z, zp), [z, zp])
    fd_z = ad.finite_diff_gradient(lambda t: full(t, zp).item(), z)
    fd_zp = ad.finite_diff_gradient(lambda t: full(z, t).item(), zp)
    assert ad.max_relative_error(grads[z], fd_z) < 1e-4
    assert ad.max_relative_error(grads[zp], fd_zp) < 1e-4
