import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sodkit import fusion, make_rng, numeric
from sodkit.errors import DimensionError, DomainError, EvaluationError
from sodkit.fusion import (
    ARRAY_FIELDS,
    CCTMGrads,
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
from sodkit.numeric import _gelu_and_cdf, _gelu_grad_from_cdf, gelu, gelu_grad, sigmoid

from interpreter import fresh_python
from rejection import assert_rejected, whole
from test_numeric import finite_diff_grad
from test_scripts import digest_rows


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
    assert np.max(np.abs(out - e * (1.0 + cross_gate(acts.e_cross1, e, p)))) < 1e-8


def test_forward_shape_contract():
    p = CCTMParams.random(4, make_rng(16))
    e = make_rng(17).standard_normal((2, 4, 9))
    b = make_rng(18).standard_normal((2, 4, 9))
    out, acts = cctm_forward(e, b, p)
    for arr in (out, acts.e_prime, acts.e_cross1, cross_gate(acts.e_cross1, b, p)):
        assert arr.shape == (2, 4, 9)


def test_forward_gates_strictly_inside_unit_interval():
    p = CCTMParams.random(3, make_rng(19))
    e = make_rng(20).standard_normal((2, 3, 7)) * 5.0
    b = make_rng(21).standard_normal((2, 3, 7)) * 5.0
    _, acts = cctm_forward(e, b, p)
    for g in (acts.e_prime, cross_gate(acts.e_cross1, b, p)):
        assert np.all(g > 0.0) and np.all(g < 1.0)


def test_output_between_blend_endpoints_for_nonnegative_inputs():
    rng = make_rng(22)
    for seed in range(5):
        p = CCTMParams.random(3, make_rng(seed))
        e = np.abs(rng.standard_normal((1, 3, 6)))
        b = np.abs(rng.standard_normal((1, 3, 6)))
        out, acts = cctm_forward(e, b, p)
        lo = np.minimum(2.0 * acts.e_cross1, acts.b)
        hi = np.maximum(2.0 * acts.e_cross1, acts.b)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


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


def _per_coordinate_gradient_check(seed, shape):
    """gradient_check with one cctm_forward per perturbed coordinate."""
    rng = make_rng(seed)
    p = CCTMParams.random(shape[1], rng)
    E, B, w = (rng.standard_normal(shape) for _ in range(3))
    d_e, d_b, grads = cctm_backward(cctm_forward(E, B, p)[1], p, w)
    analytic = np.concatenate([d_e.ravel(), d_b.ravel(), grads.to_vector()])

    def objective(vec):
        ne = vec[: E.size].reshape(shape)
        nb = vec[E.size : 2 * E.size].reshape(shape)
        return float((w * cctm_forward(ne, nb, p.with_vector(vec[2 * E.size :]))[0]).sum())

    x0 = np.concatenate([E.ravel(), B.ravel(), p.to_vector()])
    numeric = finite_diff_grad(objective, x0, fusion._FD_STEP)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / scale))


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 5), (2, 2, 3), (3, 5, 7)])
def test_stacked_gradient_check_equals_per_coordinate_reference(shape):
    for seed in range(3):
        assert gradient_check(seed, shape) == _per_coordinate_gradient_check(seed, shape)


@pytest.mark.parametrize("shape", [(1, 3, 5), (3, 5, 7)])
def test_stacked_gradient_check_is_chunk_invariant(monkeypatch, shape):
    n = 2 * math.prod(shape) + 5 * shape[1] ** 2 + 9 * shape[1]
    assert n % 7  # 7 coordinates per chunk leave a short last chunk
    monkeypatch.setattr(fusion, "_FD_CHUNK_FLOATS", 2 * 7 * n)
    for seed in (4, 5):
        assert gradient_check(seed, shape) == _per_coordinate_gradient_check(seed, shape)


def test_stacked_forward_equals_separate_forwards():
    k, shape = 4, (2, 3, 5)
    rng = make_rng(70)
    ps = [CCTMParams.random(3, rng) for _ in range(k)]
    es, bs = rng.standard_normal((k,) + shape), rng.standard_normal((k,) + shape)
    vecs = np.stack([p.to_vector() for p in ps])[:, None, :]
    out, _ = fusion._forward(es, bs, ps[0].with_vector(vecs))
    for i in range(k):
        want, _ = cctm_forward(es[i], bs[i], ps[i])
        assert np.array_equal(out[i], want)


def test_gradient_check_non_finite_objective_names_coordinate(monkeypatch):
    monkeypatch.setattr(fusion, "_FD_STEP", 1e200)
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="coordinate 0$"):
        gradient_check(0, (1, 3, 5))


# n = 2BCL + 5C^2 + 9C coordinates: 380 at (3, 5, 7), 410 at (3, 5, 8), 16386
# at (1, 1, 8186), 16872 at (1, 57, 1) and 283200 at (2, 64, 1024)
def test_gradient_check_runs_up_to_the_coordinate_bound(monkeypatch):
    monkeypatch.setattr(fusion, "_GRAD_CHECK_MAX_COORDS", 380)
    assert gradient_check(0, (3, 5, 7)) < 1e-4
    with pytest.raises(DimensionError, match="perturbs 410 coordinates, more than the bound of 380"):
        gradient_check(0, (3, 5, 8))


@pytest.mark.parametrize("shape", [(1, 1, 8186), (1, 57, 1), (2, 64, 1024)])
def test_gradient_check_refuses_a_shape_beyond_the_bound_before_drawing(monkeypatch, shape):
    def drawn(*args):
        raise AssertionError("drew a problem")

    monkeypatch.setattr(CCTMParams, "random", drawn)
    b, c, length = shape
    with pytest.raises(DimensionError, match=f"perturbs {2 * b * c * length + 5 * c * c + 9 * c} "
                                             f"coordinates, more than the bound of 16384$"):
        gradient_check(0, shape)


@pytest.mark.parametrize("ln_eps", [-1.0, 0.0, math.nan, math.inf])
def test_params_validate_rejects_non_positive_or_non_finite_ln_eps(ln_eps):
    p = CCTMParams.random(3, make_rng(57))
    p.ln_eps = ln_eps
    needle = whole(f"ln_eps must be positive and finite, got {ln_eps}")
    assert_rejected(p.validate, DomainError, needle)
    e = make_rng(58).standard_normal((1, 3, 4))
    assert_rejected(lambda: cctm_forward(e, e, p), DomainError, needle)


@pytest.mark.parametrize("gamma_shape,beta_shape", [
    ((2,), (3,)), ((3,), (4,)), ((1,), (3,)), ((3,), (1,)), ((1, 3), (3,)),
])
def test_grn_rejects_affine_not_one_per_channel(gamma_shape, beta_shape):
    x = make_rng(57).standard_normal((2, 3, 4))
    assert_rejected(lambda: grn(x, np.ones(gamma_shape), np.zeros(beta_shape)), DimensionError,
                    whole(f"gamma and beta must be (3,), got {gamma_shape} and {beta_shape}"))


def test_grads_fields_are_array_fields():
    assert tuple(f.name for f in dataclasses.fields(CCTMGrads)) == ARRAY_FIELDS
    grads = CCTMGrads(**{n: np.full(2, float(i)) for i, n in enumerate(ARRAY_FIELDS)})
    assert np.array_equal(grads.to_vector(), np.repeat(np.arange(14.0), 2))


def _frozen_backward(acts, p, d_out):
    """The out-of-place backward that the buffer-reusing one replaced, kept
    expression for expression as the bit-level reference."""
    def fc_weight_grad(d, x):
        return (d @ x.transpose(0, 2, 1)).sum(axis=0)

    def grn_backward(state, gamma, d_out):
        x, scale = state.x, state.scale
        d_beta = d_out.sum(axis=(0, 2))
        d_gamma = (d_out * x * scale[:, :, None]).sum(axis=(0, 2))
        gx = gamma[None, :, None]
        d_scale = (d_out * gx * x).sum(axis=2)
        c = x.shape[1]
        d_norm = d_scale / state.denom - (d_scale * state.norms).sum(
            axis=1, keepdims=True
        ) / (c * state.denom**2)
        safe = np.where(state.norms > 0, state.norms, 1.0)
        d_x = d_out * (gx * scale[:, :, None] + 1.0) + (d_norm / safe)[:, :, None] * x
        return d_x, d_gamma, d_beta

    def mlp_backward(state, w1, w2, d_out):
        d_hidden = w2.T @ d_out
        d_w2 = fc_weight_grad(d_out, state.hidden)
        d_b2 = d_out.sum(axis=(0, 2))
        d_pre = d_hidden * _gelu_grad_from_cdf(state.pre, state.cdf)
        d_x = w1.T @ d_pre
        d_w1 = fc_weight_grad(d_pre, state.x)
        d_b1 = d_pre.sum(axis=(0, 2))
        return d_x, d_w1, d_b1, d_w2, d_b2

    d_e1 = 2.0 * acts.gate * d_out
    d_gate = (2.0 * acts.e_cross1 - acts.b) * d_out
    d_b = (1.0 - acts.gate) * d_out
    d_logit_e = d_gate * acts.sig_b * acts.sig_e * (1.0 - acts.sig_e)
    d_logit_b = d_gate * acts.sig_e * acts.sig_b * (1.0 - acts.sig_b)
    d_grn_e_out, d_ew1, d_eb1, d_ew2, d_eb2 = mlp_backward(
        acts.mlp_e, p.mlp_e_w1, p.mlp_e_w2, d_logit_e
    )
    d_grn_b_out, d_bw1, d_bb1, d_bw2, d_bb2 = mlp_backward(
        acts.mlp_b, p.mlp_b_w1, p.mlp_b_w2, d_logit_b
    )
    d_e1_grn, d_gamma_e, d_beta_e = grn_backward(acts.grn_e, p.grn_gamma, d_grn_e_out)
    d_b_grn, d_gamma_b, d_beta_b = grn_backward(acts.grn_b, p.grn_gamma, d_grn_b_out)
    d_e1 = d_e1 + d_e1_grn
    d_b = d_b + d_b_grn
    d_b = d_b + d_e1 * (1.0 - acts.e_prime)
    d_eprime = -d_e1 * acts.b
    d_act = d_eprime * acts.e_prime * (1.0 - acts.e_prime)
    d_ln_out = d_act * _gelu_grad_from_cdf(acts.ln_out, acts.ln_cdf)
    d_ln_gamma = (d_ln_out * acts.ln_xhat).sum(axis=(0, 2))
    d_ln_beta = d_ln_out.sum(axis=(0, 2))
    d_xhat = d_ln_out * p.ln1_gamma[None, :, None]
    m1 = d_xhat.mean(axis=1, keepdims=True)
    m2 = (d_xhat * acts.ln_xhat).mean(axis=1, keepdims=True)
    d_fc = acts.ln_inv_std * (d_xhat - m1 - acts.ln_xhat * m2)
    d_e = d_e1 + p.fc1_w.T @ d_fc
    grads = CCTMGrads(
        fc1_w=fc_weight_grad(d_fc, acts.e), fc1_b=d_fc.sum(axis=(0, 2)),
        ln1_gamma=d_ln_gamma, ln1_beta=d_ln_beta,
        grn_gamma=d_gamma_e + d_gamma_b, grn_beta=d_beta_e + d_beta_b,
        mlp_b_w1=d_bw1, mlp_b_b1=d_bb1, mlp_b_w2=d_bw2, mlp_b_b2=d_bb2,
        mlp_e_w1=d_ew1, mlp_e_b1=d_eb1, mlp_e_w2=d_ew2, mlp_e_b2=d_eb2,
    )
    return d_e, d_b, grads


def _problem(shape, seed, specials=False):
    rng = make_rng(seed)
    p = CCTMParams.random(shape[1], rng)
    e, b, up = (rng.standard_normal(shape) for _ in range(3))
    if specials in (True, "aligned", "opposed"):
        e.flat[:5] = [np.nan, -np.nan, np.inf, -np.inf, -0.0]
        b.flat[-5:] = [-0.0, np.inf, -np.nan, np.nan, -np.inf]
    if specials == "aligned":
        # B's NaNs of both signs meet the NaN gate that E's NaNs spread over
        # every channel of their tokens, where E itself is finite, so the
        # NaN a product keeps depends on its operand order
        b.flat[6:11] = [-np.nan, np.nan, -np.nan, np.nan, -np.nan]
    if specials == "opposed":
        # NaNs of opposite sign meet where the result keeps its first
        # operand's NaN: E's and B's at E + B (1 - E'), since B's NaN passes
        # through its product; the NaN gamma of channel 1 and the inputs'
        # NaNs of that channel at the GRN's residual add; and, in the
        # backward, up's NaNs of both signs and the NaN gate of batch 0
        e[0, 1, :4] = [np.nan, -np.nan, np.nan, -np.nan]
        b[0, 1, :4] = [-np.nan, np.nan, -np.nan, np.nan]
        b[1, 1, 2:4] = [np.nan, -np.nan]
        p.grn_gamma[1] = -np.nan
        up[0] = np.where(np.arange(up[0].size).reshape(up[0].shape) % 2, np.nan, -np.nan)
    if specials == "mlp":
        # each MLP's pre-activations on channels 0 to 2 are +0, the smallest
        # subnormal, whose half rounds to 0, and a subnormal of more bits,
        # where the backward rebuilds the GELU output from them and its CDF
        for w1, b1 in ((p.mlp_e_w1, p.mlp_e_b1), (p.mlp_b_w1, p.mlp_b_b1)):
            w1[:3] = 0.0
            b1[:3] = [0.0, 5e-324, -3.3e-310]
    if specials == "ln":
        # E's NaNs make token 0's normalized map xhat +NaN; in the LayerNorm
        # output gamma * xhat + beta, which the backward rebuilds, it meets
        # channel 1's -NaN gamma, and gamma * xhat meets channel 2's -NaN beta
        e[0, :, 0] = np.nan
        p.ln1_gamma[1], p.ln1_beta[2] = -np.nan, -np.nan
    if specials == "gate":
        # the gate's factors are NaNs of opposite sign on channel 0, so the
        # NaN of the gate the backward rebuilds depends on its operand order
        p.mlp_e_b2[0], p.mlp_b_b2[0] = np.nan, -np.nan
    return e, b, up, p


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("shape,specials", [
    ((2, 64, 1024), False), ((1, 3, 5), False), ((3, 8, 33), False), ((1, 1, 1), False),
    ((2, 4, 6), True), ((2, 4, 6), "opposed"), ((2, 4, 6), "mlp"), ((2, 4, 6), "ln"),
    ((2, 4, 6), "gate"),
])
def test_backward_bit_identical_to_frozen_reference(shape, specials):
    # the backward on the current forward's activations, which it completes
    # by rebuilding maps, against the frozen backward on the frozen forward's
    e, b, up, p = _problem(shape, 80 + shape[1], specials)
    with np.errstate(all="ignore"):
        _, acts = cctm_forward(e, b, p)
        got = cctm_backward(acts, p, up)
        want = _frozen_backward(_frozen_forward(e, b, p)[1], p, up)
    if specials == "mlp":
        assert not np.isnan(got[0]).any() and not np.isnan(got[1]).any()
        assert np.isin(acts.mlp_e.pre[:, 1:3], [5e-324, -3.3e-310]).all()
    elif specials:
        assert np.isnan(got[0]).any() and np.isnan(got[1]).any()
    for g, w in zip(got[:2] + (got[2].to_vector(),), want[:2] + (want[2].to_vector(),)):
        assert np.array_equal(_bits(g), _bits(w))


# the smallest maps the pool takes: 2 * 16 * 1024 float64s are 256 KiB
_POOLED = (2, 16, 1024)


def _step(e, b, up, p):
    out, acts = cctm_forward(e, b, p)
    return out, acts, cctm_backward(acts, p, up)


def _reachable_arrays(obj):
    """Every ndarray reachable through dataclass fields, by field path."""
    if isinstance(obj, np.ndarray):
        return {"": obj}
    if dataclasses.is_dataclass(obj):
        return {
            f"{f.name}.{path}": arr
            for f in dataclasses.fields(obj)
            for path, arr in _reachable_arrays(getattr(obj, f.name)).items()
        }
    return {}


def _assert_backward_leaves_inputs_alone_and_returns_fresh_arrays(shape, seed):
    e, b, up, p = _problem(shape, seed)
    _, acts = cctm_forward(e, b, p)
    arrays = _reachable_arrays(acts)
    assert len(arrays) > 20
    before = {k: a.tobytes() for k, a in arrays.items()}
    up_before = up.tobytes()

    d_e, d_b, grads = cctm_backward(acts, p, up)
    assert {k: a.tobytes() for k, a in arrays.items()} == before
    assert up.tobytes() == up_before
    for k, a in arrays.items():
        assert not np.shares_memory(d_e, a), k
        assert not np.shares_memory(d_b, a), k
    assert not np.shares_memory(d_e, d_b)

    d_e2, d_b2, grads2 = cctm_backward(acts, p, up)
    assert d_e.tobytes() == d_e2.tobytes() and d_b.tobytes() == d_b2.tobytes()
    assert grads.to_vector().tobytes() == grads2.to_vector().tobytes()


def test_backward_leaves_inputs_alone_and_returns_fresh_arrays():
    _assert_backward_leaves_inputs_alone_and_returns_fresh_arrays((2, 5, 7), 90)


def test_backward_at_a_pooled_shape_returns_fresh_arrays():
    # after a step at the shape has freed its maps for reuse
    numeric._empty_pool()
    _step(*_problem(_POOLED, 90))
    _assert_backward_leaves_inputs_alone_and_returns_fresh_arrays(_POOLED, 90)


@pytest.mark.parametrize("shape", [(2, 5, 7), _POOLED])
def test_forward_holds_twelve_maps(shape):
    # the gate, the output, the LayerNorm output and the two GELU outputs
    # are not held; the backward rebuilds the three it needs
    e, b, _, p = _problem(shape, 95)
    _, acts = cctm_forward(e, b, p)
    maps = {id(a) for a in _reachable_arrays(acts).values() if a.shape == shape}
    assert len(maps - {id(e), id(b)}) == 12


def _traced_peak(fn):
    """Peak bytes that tracemalloc traces while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_backward_traced_peak_is_about_five_maps():
    # numpy reports its data buffers to tracemalloc, so the peak is exact; one
    # [2, 64, 1024] map is 1 MiB, and the backward holds five of them
    e, b, up, p = _problem((2, 64, 1024), 91)
    _, acts = cctm_forward(e, b, p)
    numeric._empty_pool()
    assert _traced_peak(lambda: cctm_backward(acts, p, up)) < 6 * 2**20


def _frozen_sigmoid(x):
    """The masked-copy sigmoid that the branch-free one replaced."""
    e = np.empty_like(x)
    np.exp(np.minimum(x, np.negative(x, out=e), out=e), out=e)
    d = np.add(1.0, e, out=np.empty_like(x))
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=x >= 0)
    return e


# The frozen forward's activations keep the fields that CCTMActivations and
# _MlpState held before the backward rebuilt the gate, the LayerNorm output
# and the GELU outputs; every other field has its current name and meaning.
_FrozenActivations = dataclasses.make_dataclass(
    "_FrozenActivations",
    ["e", "b", "e_prime", "e_cross1", "gate", "e_cf", "ln_xhat", "ln_inv_std", "ln_out",
     "ln_cdf", "grn_e", "grn_b", "mlp_e", "mlp_b", "sig_e", "sig_b"],
)
_FrozenMlpState = dataclasses.make_dataclass("_FrozenMlpState", ["x", "pre", "hidden", "cdf"])
# the fields the current activations lack: the output, which the forward
# returns, and the maps the backward rebuilds
_DROPPED = {"e_cf.", "gate.", "ln_out.", "mlp_e.hidden.", "mlp_b.hidden."}


def _frozen_forward(E, B, p):
    """The out-of-place forward that the in-place one replaced, kept
    expression for expression as the bit-level reference."""
    def fc(w, b, x):
        return w @ x + b[..., None]

    def gate_first_state(E, p):
        z = fc(p.fc1_w, p.fc1_b, E)
        mean = z.mean(axis=-2, keepdims=True)
        var = z.var(axis=-2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + p.ln_eps)
        xhat = (z - mean) * inv_std
        ln_out = p.ln1_gamma[..., None] * xhat + p.ln1_beta[..., None]
        act, ln_cdf = _gelu_and_cdf(ln_out)
        return _frozen_sigmoid(act), xhat, inv_std, ln_out, ln_cdf

    def grn_state(x, gamma, beta, eps):
        norms = np.sqrt((x * x).sum(axis=-1))
        denom = norms.mean(axis=-1, keepdims=True) + eps
        scale = norms / denom
        out = gamma[..., None] * x * scale[..., None] + beta[..., None] + x
        return fusion._GrnState(x=x, norms=norms, scale=scale, denom=denom, out=out)

    def mlp_state(x, w1, b1, w2, b2):
        pre = fc(w1, b1, x)
        hidden, cdf = _gelu_and_cdf(pre)
        return fc(w2, b2, hidden), _FrozenMlpState(x=x, pre=pre, hidden=hidden, cdf=cdf)

    def cross_gate_state(e1, B, p):
        grn_e = grn_state(e1, p.grn_gamma, p.grn_beta, p.grn_eps)
        grn_b = grn_state(B, p.grn_gamma, p.grn_beta, p.grn_eps)
        logit_e, mlp_e = mlp_state(grn_e.out, p.mlp_e_w1, p.mlp_e_b1, p.mlp_e_w2, p.mlp_e_b2)
        logit_b, mlp_b = mlp_state(grn_b.out, p.mlp_b_w1, p.mlp_b_b1, p.mlp_b_w2, p.mlp_b_b2)
        sig_e = _frozen_sigmoid(logit_e)
        sig_b = _frozen_sigmoid(logit_b)
        return sig_e * sig_b, grn_e, grn_b, mlp_e, mlp_b, sig_e, sig_b

    e_prime, ln_xhat, ln_inv_std, ln_out, ln_cdf = gate_first_state(E, p)
    e_cross1 = E + B * (1.0 - e_prime)
    gate, grn_e, grn_b, mlp_e, mlp_b, sig_e, sig_b = cross_gate_state(e_cross1, B, p)
    e_cf = 2.0 * e_cross1 * gate + B * (1.0 - gate)
    acts = _FrozenActivations(
        e=E, b=B, e_prime=e_prime, e_cross1=e_cross1, gate=gate, e_cf=e_cf,
        ln_xhat=ln_xhat, ln_inv_std=ln_inv_std, ln_out=ln_out, ln_cdf=ln_cdf,
        grn_e=grn_e, grn_b=grn_b, mlp_e=mlp_e, mlp_b=mlp_b,
        sig_e=sig_e, sig_b=sig_b,
    )
    return e_cf, acts


def _assert_forward_bit_identical(got, want):
    got_arrays, want_arrays = _reachable_arrays(got[1]), _reachable_arrays(want[1])
    assert got_arrays.keys() == want_arrays.keys() - _DROPPED and len(got_arrays) > 20
    for path in got_arrays:
        g, w = got_arrays[path], want_arrays[path]
        assert g.shape == w.shape, path
        assert np.array_equal(_bits(g), _bits(w)), path
    assert np.array_equal(_bits(got[0]), _bits(want[0]))


@pytest.mark.parametrize("shape,specials", [
    ((2, 64, 1024), False), ((1, 3, 5), False), ((3, 8, 33), False), ((1, 1, 1), False),
    ((2, 4, 6), True), ((2, 4, 6), "aligned"), ((2, 4, 6), "opposed"), ((2, 4, 6), "ln"),
])
def test_forward_bit_identical_to_frozen_reference(shape, specials):
    e, b, _, p = _problem(shape, 80 + shape[1], specials)
    with np.errstate(all="ignore"):
        got = cctm_forward(e, b, p)
        want = _frozen_forward(e, b, p)
    if specials:
        assert np.isnan(got[0]).any()
    _assert_forward_bit_identical(got, want)


@pytest.mark.parametrize("shape,specials", [
    ((2, 64, 1024), False), ((1, 3, 5), False), ((3, 8, 33), False), ((1, 1, 1), False),
    ((2, 4, 6), True), ((2, 4, 6), "aligned"), ((2, 4, 6), "opposed"),
])
def test_public_steps_chain_to_the_forward_bit_for_bit(shape, specials):
    # the inputs of the frozen forward test's cases; each public step runs
    # the kernel the forward runs, so chaining them gives its maps exactly
    e, b, _, p = _problem(shape, 80 + shape[1], specials)
    with np.errstate(all="ignore"):
        out, acts = cctm_forward(e, b, p)
        e_prime = gate_first(e, p)
        e_cross1 = cross_first(e, b, e_prime)
        gate = cross_gate(e_cross1, b, p)
        chained = [e_prime, e_cross1, gate, cross_second(e_cross1, b, gate),
                   grn(acts.e_cross1, p.grn_gamma, p.grn_beta, p.grn_eps)]
        forward_gate = cross_gate(acts.e_cross1, b, p)
    for got, want in zip(chained, [acts.e_prime, acts.e_cross1, forward_gate, out, acts.grn_e.out]):
        assert np.array_equal(_bits(got), _bits(want))


def test_stacked_forward_bit_identical_to_frozen_reference():
    # the [K, B, C, L] problem gradient_check feeds the forward: strided
    # views of one row matrix, and [K, 1, ...] parameters from with_vector
    k, shape = 6, (2, 3, 5)
    e, b, _, p = _problem(shape, 95)
    size = e.size
    rows = np.tile(np.concatenate([e.ravel(), b.ravel(), p.to_vector()]), (k, 1))
    rows += make_rng(96).standard_normal(rows.shape) * 1e-3
    ne = rows[:, :size].reshape((k,) + shape)
    nb = rows[:, size : 2 * size].reshape((k,) + shape)
    np_ = p.with_vector(rows[:, None, 2 * size :])
    _assert_forward_bit_identical(fusion._forward(ne, nb, np_), _frozen_forward(ne, nb, np_))


def _assert_forward_returns_arrays_that_share_no_memory(shape, seed):
    e, b, _, p = _problem(shape, seed)
    out, acts = cctm_forward(e, b, p)
    arrays = {id(a): (path, a) for path, a in _reachable_arrays(acts).items()}
    arrays[id(out)] = ("output", out)
    # acts.e and acts.b are the inputs themselves, and the GRN and MLP states
    # hold their inputs by reference; every other array is its own
    assert id(e) in arrays and id(b) in arrays
    owned = [(path, a) for key, (path, a) in arrays.items() if key not in (id(e), id(b))]
    assert len(owned) == 20
    for i, (path, a) in enumerate(owned):
        assert not np.shares_memory(a, e) and not np.shares_memory(a, b), path
        for other_path, other in owned[i + 1:]:
            assert not np.shares_memory(a, other), (path, other_path)


def test_forward_returns_arrays_that_share_no_memory():
    _assert_forward_returns_arrays_that_share_no_memory((2, 5, 7), 97)


def test_forward_at_a_pooled_shape_returns_arrays_that_share_no_memory():
    numeric._empty_pool()
    _step(*_problem(_POOLED, 97))
    _assert_forward_returns_arrays_that_share_no_memory(_POOLED, 97)


def test_forward_traced_peak_is_its_returned_maps_and_one_scratch():
    # twelve held [2, 64, 1024] maps of 1 MiB each, the gate, the output and
    # one scratch map: 15.04 MiB, where the forward that held seventeen maps
    # peaked at 18.04 MiB and the out-of-place one at 18.15 MiB
    e, b, _, p = _problem((2, 64, 1024), 98)
    numeric._empty_pool()
    assert _traced_peak(lambda: cctm_forward(e, b, p)) < 15.3 * 2**20


def test_warm_step_traced_peak_is_under_one_map():
    # a step frees every map it made once its results are dropped, so the
    # next step at the same shape builds all of them in reused buffers
    e, b, up, p = _problem((2, 64, 1024), 99)
    numeric._empty_pool()
    _step(e, b, up, p)
    assert _traced_peak(lambda: _step(e, b, up, p)) < 2**20


def _step_arrays(step):
    out, acts, (d_e, d_b, grads) = step
    return [out, d_e, d_b, *_reachable_arrays(acts).values()]


def test_pooled_maps_stay_fresh_while_views_of_freed_maps_live():
    numeric._empty_pool()
    e, b, up, p = _problem(_POOLED, 100)
    out, acts, (d_e, d_b, grads) = _step(e, b, up, p)
    # a slice, a reshape and a transpose of activations and gradients,
    # whose own arrays are then dropped
    held = [out[1, 3:], acts.ln_cdf.reshape(-1, 64), acts.mlp_e.pre.transpose(2, 0, 1),
            d_e[:, ::2], d_b.reshape(-1)[5:], acts.sig_b.T]
    want = [h.tobytes() for h in held]
    del out, acts, d_e, d_b, grads
    for _ in range(2):
        for a in _step_arrays(_step(e, b, up, p)):
            assert not any(np.shares_memory(a, h) for h in held)
        assert [h.tobytes() for h in held] == want


def _step_digest(e, b, up, p):
    """sha256 of every array a step returns, taken while they all live."""
    digest = hashlib.sha256()
    for a in _step_arrays(_step(e, b, up, p)):
        digest.update(a.tobytes())
    return digest.hexdigest()


def test_concurrent_steps_equal_serial_steps():
    # more threads than cores, switching often, so that takes and gives of
    # the shared free lists interleave; two threads given one buffer would
    # overwrite each other's maps
    numeric._empty_pool()
    problems = [_problem(_POOLED, 101 + k) for k in range(4)]
    want = [_step_digest(*pr) for pr in problems]
    got = [[] for _ in problems]

    def run(k):
        for _ in range(2):
            got[k].append(_step_digest(*problems[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(problems))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w, w] for w in want]


_CONCURRENT_FIRST_FORWARD = """\
import dataclasses, hashlib, sys, threading
import numpy as np
from sodkit import CCTMParams, cctm_forward, make_rng


def digest(obj, h=None):
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif isinstance(obj, tuple):
        for o in obj:
            digest(o, h)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    return h.hexdigest()


rng = make_rng(5)
E, B = rng.standard_normal((2, 8, 16)), rng.standard_normal((2, 8, 16))
p = CCTMParams.random(8, rng)
assert "scipy" not in sys.modules
start = threading.Barrier(2)
got = []


def run():
    start.wait()
    got.append(digest(cctm_forward(E, B, p)))


sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=run, daemon=True) for _ in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads), "a thread did not finish"
want = digest(cctm_forward(E, B, p))
assert got == [want, want], (got, want)
assert "scipy.special" not in sys.modules
print("ok")
"""


def test_concurrent_first_forwards_equal_a_serial_forward():
    # both threads reach the first GELU, and with it the erf load, at once
    proc = fresh_python("-c", _CONCURRENT_FIRST_FORWARD)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_freed_buffers_held_never_exceed_the_bound():
    def held():
        """Bytes of the freed buffers waiting for reuse."""
        return sum(8 * size * len(bufs) for size, bufs in numeric._POOL.free.items())

    # maps of 256 KiB, 512 KiB, 1 MiB and 2 MiB; one step at the last shape
    # alone frees more than the bound
    numeric._empty_pool()
    for shape in [(1, 8, 4096), (2, 8, 4096), (1, 16, 8192), (4, 8, 8192), (1, 8, 4096)]:
        e, b, up, p = _problem(shape, 102)
        result = _step(e, b, up, p)
        assert held() <= numeric._POOL_MAX_BYTES
        del result
        assert held() <= numeric._POOL_MAX_BYTES


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the [2, 128, 500] steps change "
                   "their last bits between one and two OpenBLAS threads")
def test_cctm_bits_do_not_depend_on_the_blas_thread_count():
    one, two = digest_rows(1)["cctm"], digest_rows(2)["cctm"]
    assert one.startswith("42,")
    assert one == two
