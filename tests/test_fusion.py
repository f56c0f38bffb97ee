import math

import numpy as np
import pytest

from sodkit import make_rng
from sodkit.errors import DimensionError
from sodkit.fusion import (
    ARRAY_FIELDS,
    CCTMParams,
    cctm_backward,
    cctm_forward,
    cross_first,
    cross_gate,
    cross_second,
    gate_first,
    gradient_check,
    grn,
)
from sodkit.numeric import finite_diff_grad, gelu, gelu_grad, sigmoid


def zero_params(c, ln_eps=1e-12):
    z = np.zeros((c, c))
    v = np.zeros(c)
    return CCTMParams(
        fc1_w=z.copy(), fc1_b=v.copy(),
        ln1_gamma=np.ones(c), ln1_beta=v.copy(),
        grn_gamma=v.copy(), grn_beta=v.copy(),
        mlp_b_w1=z.copy(), mlp_b_b1=v.copy(), mlp_b_w2=z.copy(), mlp_b_b2=v.copy(),
        mlp_e_w1=z.copy(), mlp_e_b1=v.copy(), mlp_e_w2=z.copy(), mlp_e_b2=v.copy(),
        ln_eps=ln_eps,
    )


def test_gate_first_zero_fc_is_half():
    p = zero_params(3)
    e = make_rng(0).standard_normal((2, 3, 4))
    assert np.allclose(gate_first(e, p), 0.5)


def test_gate_first_chained_hand_values():
    p = zero_params(2)
    p.fc1_w = np.eye(2)
    e = np.array([1.0, -1.0]).reshape(1, 2, 1)
    out = gate_first(e, p).ravel()
    assert np.allclose(out, [0.6988, 0.4604], atol=5e-5)


def test_gate_first_token_shift_invariance_iff_rows_sum_to_zero():
    rng = make_rng(4)
    w = rng.standard_normal((2, 2))
    e = rng.standard_normal((1, 2, 3))
    shifted = e + 0.7  # constant added to every channel of every token

    p = zero_params(2)
    p.fc1_w = w - w.mean(axis=1, keepdims=True)  # rows sum to zero
    assert np.allclose(gate_first(e, p), gate_first(shifted, p), atol=1e-12)

    p.fc1_w = w  # generic rows
    assert not np.allclose(gate_first(e, p), gate_first(shifted, p), atol=1e-6)


def test_cross_first_limits_and_scalar():
    e = make_rng(1).standard_normal((1, 2, 3))
    b = make_rng(2).standard_normal((1, 2, 3))
    assert np.array_equal(cross_first(e, b, np.ones_like(e)), e)
    assert np.array_equal(cross_first(e, b, np.zeros_like(e)), e + b)
    out = cross_first(np.full((1, 1, 1), 1.0), np.full((1, 1, 1), 2.0), np.full((1, 1, 1), 0.25))
    assert out.item() == 2.5


def test_cross_first_identity_when_b_is_zero():
    e = make_rng(3).standard_normal((2, 3, 5))
    gate = make_rng(4).uniform(0, 1, (2, 3, 5))
    assert np.array_equal(cross_first(e, np.zeros_like(e), gate), e)


def test_grn_residual_only():
    x = make_rng(5).standard_normal((2, 3, 4))
    assert np.array_equal(grn(x, np.zeros(3), np.zeros(3)), x)


def test_grn_equal_energy_doubles():
    x = np.ones((1, 4, 6)) * -1.7
    out = grn(x, np.ones(4), np.zeros(4), eps=1e-15)
    assert np.allclose(out, 2.0 * x)


def test_grn_zero_input_gives_beta():
    beta = np.array([1.0, -2.0, 0.5])
    out = grn(np.zeros((2, 3, 4)), np.ones(3), beta)
    assert np.allclose(out, np.broadcast_to(beta[None, :, None], (2, 3, 4)))


def test_cross_gate_zero_mlps_quarter():
    p = zero_params(3)
    e = make_rng(6).standard_normal((1, 3, 4))
    b = make_rng(7).standard_normal((1, 3, 4))
    assert np.allclose(cross_gate(e, b, p), 0.25)


def test_cross_gate_saturated_branch_passes_other_through():
    p = CCTMParams.random(3, make_rng(8))
    p.mlp_b_w1 = np.zeros((3, 3))
    p.mlp_b_w2 = np.zeros((3, 3))
    p.mlp_b_b1 = np.zeros(3)
    p.mlp_b_b2 = np.full(3, 40.0)  # saturate the backbone branch
    e = make_rng(9).standard_normal((1, 3, 4))
    b = make_rng(10).standard_normal((1, 3, 4))
    gate = cross_gate(e, b, p)
    ge = _grn_ref(e, p.grn_gamma, p.grn_beta, p.grn_eps)
    other = sigmoid(_mlp_ref(ge, p.mlp_e_w1, p.mlp_e_b1, p.mlp_e_w2, p.mlp_e_b2))
    assert np.allclose(gate, other, atol=1e-9)


def _grn_ref(x, gamma, beta, eps):
    out = np.empty_like(x)
    for bi in range(x.shape[0]):
        g = np.linalg.norm(x[bi], axis=1)
        n = g / (g.mean() + eps)
        out[bi] = gamma[:, None] * x[bi] * n[:, None] + beta[:, None] + x[bi]
    return out


def _mlp_ref(x, w1, b1, w2, b2):
    out = np.empty_like(x)
    for bi in range(x.shape[0]):
        for li in range(x.shape[2]):
            h = gelu(w1 @ x[bi, :, li] + b1)
            out[bi, :, li] = w2 @ h + b2
    return out


def test_cross_gate_scalar_brute_force():
    p = zero_params(1)
    p.grn_gamma = np.array([0.3])
    p.grn_beta = np.array([-0.1])
    p.mlp_e_w1 = np.array([[1.1]])
    p.mlp_e_b1 = np.array([0.2])
    p.mlp_e_w2 = np.array([[-0.7]])
    p.mlp_e_b2 = np.array([0.4])
    p.mlp_b_w1 = np.array([[0.6]])
    p.mlp_b_b1 = np.array([-0.3])
    p.mlp_b_w2 = np.array([[0.9]])
    p.mlp_b_b2 = np.array([0.1])
    ev, bv = 0.8, -1.3
    e = np.full((1, 1, 1), ev)
    b = np.full((1, 1, 1), bv)

    def branch(v, w1, b1, w2, b2):
        # single channel, single token: GRN scale is |v| / (|v| + eps)
        n = abs(v) / (abs(v) + p.grn_eps)
        g = 0.3 * v * n - 0.1 + v
        h = float(gelu(np.array([w1 * g + b1]))[0])
        return 1.0 / (1.0 + math.exp(-(w2 * h + b2)))

    expected = branch(ev, 1.1, 0.2, -0.7, 0.4) * branch(bv, 0.6, -0.3, 0.9, 0.1)
    assert abs(cross_gate(e, b, p).item() - expected) < 1e-12


def test_cross_second_limits_and_scalar():
    e = make_rng(11).standard_normal((1, 2, 2))
    b = make_rng(12).standard_normal((1, 2, 2))
    hi = sigmoid(np.full_like(e, 40.0))
    lo = sigmoid(np.full_like(e, -40.0))
    assert np.max(np.abs(cross_second(e, b, hi) - 2.0 * e)) < 1e-9
    assert np.max(np.abs(cross_second(e, b, lo) - b)) < 1e-9
    out = cross_second(np.full((1, 1, 1), 1.0), np.full((1, 1, 1), 4.0), np.full((1, 1, 1), 0.5))
    assert out.item() == 3.0


def test_forward_composition_b_zero_zero_logits():
    p = zero_params(3)
    e = make_rng(13).standard_normal((1, 3, 4))
    out, acts = cctm_forward(e, np.zeros_like(e), p)
    assert np.allclose(acts.e_cross1, e)
    assert np.allclose(out, 0.5 * e)


def test_forward_e_equals_b_with_open_first_gate():
    p = CCTMParams.random(3, make_rng(14))
    p.ln1_gamma = np.zeros(3)
    p.ln1_beta = np.full(3, 40.0)  # first gate saturates to 1
    e = make_rng(15).standard_normal((2, 3, 4))
    out, acts = cctm_forward(e, e, p)
    assert np.max(np.abs(acts.e_cross1 - e)) < 1e-9
    assert np.max(np.abs(out - e * (1.0 + acts.gate))) < 1e-8


def test_forward_shape_contract():
    p = CCTMParams.random(4, make_rng(16))
    e = make_rng(17).standard_normal((2, 4, 9))
    b = make_rng(18).standard_normal((2, 4, 9))
    out, acts = cctm_forward(e, b, p)
    for arr in (out, acts.e_prime, acts.e_cross1, acts.gate, acts.e_cf):
        assert arr.shape == (2, 4, 9)


def test_forward_gates_strictly_inside_unit_interval():
    p = CCTMParams.random(3, make_rng(19))
    e = make_rng(20).standard_normal((2, 3, 7)) * 5.0
    b = make_rng(21).standard_normal((2, 3, 7)) * 5.0
    _, acts = cctm_forward(e, b, p)
    for g in (acts.e_prime, acts.gate):
        assert np.all(g > 0.0) and np.all(g < 1.0)


def test_output_between_blend_endpoints_for_nonnegative_inputs():
    rng = make_rng(22)
    for seed in range(5):
        p = CCTMParams.random(3, make_rng(seed))
        e = np.abs(rng.standard_normal((1, 3, 6)))
        b = np.abs(rng.standard_normal((1, 3, 6)))
        _, acts = cctm_forward(e, b, p)
        lo = np.minimum(2.0 * acts.e_cross1, acts.b)
        hi = np.maximum(2.0 * acts.e_cross1, acts.b)
        assert np.all(acts.e_cf >= lo - 1e-12) and np.all(acts.e_cf <= hi + 1e-12)


def test_backward_zero_upstream_gives_zero_grads():
    p = CCTMParams.random(3, make_rng(23))
    e = make_rng(24).standard_normal((1, 3, 5))
    b = make_rng(25).standard_normal((1, 3, 5))
    _, acts = cctm_forward(e, b, p)
    d_e, d_b, grads = cctm_backward(acts, p, np.zeros_like(e))
    assert not d_e.any() and not d_b.any() and not grads.to_vector().any()


def test_backward_cross_second_hand_gradients():
    rng = make_rng(26)
    e = rng.standard_normal((1, 2, 3))
    b = rng.standard_normal((1, 2, 3))
    gate = rng.uniform(0.1, 0.9, (1, 2, 3))
    up = rng.standard_normal((1, 2, 3))
    # differentiate 2 e g + b (1 - g) by hand and with central differences
    assert np.allclose(
        finite_diff_grad(lambda v: float((up * cross_second(v, b, gate)).sum()), e.copy()),
        2.0 * gate * up, atol=1e-8)
    assert np.allclose(
        finite_diff_grad(lambda v: float((up * cross_second(e, v, gate)).sum()), b.copy()),
        (1.0 - gate) * up, atol=1e-8)


def test_backward_rejects_stale_upstream_shape():
    p = CCTMParams.random(2, make_rng(27))
    e = make_rng(28).standard_normal((1, 2, 3))
    _, acts = cctm_forward(e, e, p)
    with pytest.raises(DimensionError):
        cctm_backward(acts, p, np.zeros((1, 2, 4)))


def _einsum_reference(E, B, p, up):
    """Forward output and gradients of sum(up * output) with every channel
    map written as an einsum; the rest of the block is spelled out again."""
    def fc(w, b, x):
        return np.einsum("ij,bjl->bil", w, x) + b[None, :, None]

    def fc_input_grad(w, d):
        return np.einsum("ij,bil->bjl", w, d)

    def fc_weight_grad(d, x):
        return np.einsum("bil,bjl->ij", d, x)

    def grn_fwd(x):
        norms = np.sqrt((x * x).sum(axis=2))
        denom = norms.mean(axis=1, keepdims=True) + p.grn_eps
        scale = (norms / denom)[:, :, None]
        return p.grn_gamma[None, :, None] * x * scale + p.grn_beta[None, :, None] + x, norms, denom

    def grn_bwd(x, norms, denom, d):
        gx = p.grn_gamma[None, :, None]
        scale = (norms / denom)[:, :, None]
        d_scale = (d * gx * x).sum(axis=2)
        d_norm = d_scale / denom - (d_scale * norms).sum(axis=1, keepdims=True) / (
            x.shape[1] * denom**2)
        safe = np.where(norms > 0, norms, 1.0)
        d_x = d * (gx * scale + 1.0) + (d_norm / safe)[:, :, None] * x
        return d_x, (d * x * scale).sum(axis=(0, 2)), d.sum(axis=(0, 2))

    def mlp(x, w1, b1, w2, b2):
        pre = fc(w1, b1, x)
        return pre, fc(w2, b2, gelu(pre))

    def mlp_bwd(x, pre, w1, w2, d):
        d_w2 = fc_weight_grad(d, gelu(pre))
        d_pre = fc_input_grad(w2, d) * gelu_grad(pre)
        return (fc_input_grad(w1, d_pre), fc_weight_grad(d_pre, x), d_pre.sum(axis=(0, 2)),
                d_w2, d.sum(axis=(0, 2)))

    z = fc(p.fc1_w, p.fc1_b, E)
    inv_std = 1.0 / np.sqrt(z.var(axis=1, keepdims=True) + p.ln_eps)
    xhat = (z - z.mean(axis=1, keepdims=True)) * inv_std
    ln = p.ln1_gamma[None, :, None] * xhat + p.ln1_beta[None, :, None]
    e_prime = sigmoid(gelu(ln))
    e1 = E + B * (1.0 - e_prime)
    ge, ge_norms, ge_denom = grn_fwd(e1)
    gb, gb_norms, gb_denom = grn_fwd(B)
    pre_e, logit_e = mlp(ge, p.mlp_e_w1, p.mlp_e_b1, p.mlp_e_w2, p.mlp_e_b2)
    pre_b, logit_b = mlp(gb, p.mlp_b_w1, p.mlp_b_b1, p.mlp_b_w2, p.mlp_b_b2)
    sig_e, sig_b = sigmoid(logit_e), sigmoid(logit_b)
    gate = sig_e * sig_b
    out = 2.0 * e1 * gate + B * (1.0 - gate)

    d_gate = (2.0 * e1 - B) * up
    d_ge, d_ew1, d_eb1, d_ew2, d_eb2 = mlp_bwd(
        ge, pre_e, p.mlp_e_w1, p.mlp_e_w2, d_gate * sig_b * sig_e * (1.0 - sig_e))
    d_gb, d_bw1, d_bb1, d_bw2, d_bb2 = mlp_bwd(
        gb, pre_b, p.mlp_b_w1, p.mlp_b_w2, d_gate * sig_e * sig_b * (1.0 - sig_b))
    d_e1_grn, d_gamma_e, d_beta_e = grn_bwd(e1, ge_norms, ge_denom, d_ge)
    d_b_grn, d_gamma_b, d_beta_b = grn_bwd(B, gb_norms, gb_denom, d_gb)
    d_e1 = 2.0 * gate * up + d_e1_grn
    d_b = (1.0 - gate) * up + d_b_grn + d_e1 * (1.0 - e_prime)
    d_ln = -d_e1 * B * e_prime * (1.0 - e_prime) * gelu_grad(ln)
    d_xhat = d_ln * p.ln1_gamma[None, :, None]
    d_fc = inv_std * (d_xhat - d_xhat.mean(axis=1, keepdims=True)
                      - xhat * (d_xhat * xhat).mean(axis=1, keepdims=True))
    grads = {
        "fc1_w": fc_weight_grad(d_fc, E), "fc1_b": d_fc.sum(axis=(0, 2)),
        "ln1_gamma": (d_ln * xhat).sum(axis=(0, 2)), "ln1_beta": d_ln.sum(axis=(0, 2)),
        "grn_gamma": d_gamma_e + d_gamma_b, "grn_beta": d_beta_e + d_beta_b,
        "mlp_b_w1": d_bw1, "mlp_b_b1": d_bb1, "mlp_b_w2": d_bw2, "mlp_b_b2": d_bb2,
        "mlp_e_w1": d_ew1, "mlp_e_b1": d_eb1, "mlp_e_w2": d_ew2, "mlp_e_b2": d_eb2,
    }
    return out, d_e1 + fc_input_grad(p.fc1_w, d_fc), d_b, grads


def _rel_err(got, want):
    """Largest absolute difference relative to the largest reference entry."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("shape", [(3, 8, 33), (1, 3, 5)])
def test_forward_backward_match_einsum_reference(shape):
    rng = make_rng(60 + shape[0])
    p = CCTMParams.random(shape[1], rng)
    e, b, up = (rng.standard_normal(shape) for _ in range(3))
    out, acts = cctm_forward(e, b, p)
    d_e, d_b, grads = cctm_backward(acts, p, up)
    ref_out, ref_d_e, ref_d_b, ref_grads = _einsum_reference(e, b, p, up)
    assert _rel_err(out, ref_out) < 1e-12
    assert _rel_err(d_e, ref_d_e) < 1e-12
    assert _rel_err(d_b, ref_d_b) < 1e-12
    assert set(ref_grads) == set(ARRAY_FIELDS)
    for name in ARRAY_FIELDS:
        got = getattr(grads, name)
        assert got.shape == getattr(p, name).shape, name
        assert _rel_err(got, ref_grads[name]) < 1e-12, name


def test_gradient_check_handful_of_seeds():
    worst = max(gradient_check(seed, (1, 3, 5)) for seed in range(5))
    assert worst < 1e-5


def test_gradient_check_other_shapes():
    assert gradient_check(101, (2, 2, 3)) < 1e-4
    assert gradient_check(102, (1, 4, 2)) < 1e-4


def test_params_validate_rejects_inconsistent_extents():
    p = CCTMParams.random(3, make_rng(50))
    p.mlp_e_w2 = np.zeros((3, 2))
    with pytest.raises(DimensionError):
        p.validate()
    p = CCTMParams.random(3, make_rng(51))
    p.grn_eps = 0.0
    with pytest.raises(DimensionError):
        p.validate()


def test_forward_rejects_channel_mismatch():
    p = CCTMParams.random(3, make_rng(52))
    e = make_rng(53).standard_normal((1, 4, 5))
    with pytest.raises(DimensionError):
        cctm_forward(e, e, p)
