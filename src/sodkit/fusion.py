"""Two-step gated fusion of a backbone feature map B into an encoder feature
map E, producing a cross feature with sharper detail content.

Step one gates B by a sigmoid map derived from E:

    E' = sigmoid(gelu(LN(FC(E))))            (channel-mixing FC per token)
    E1 = E + B * (1 - E')

Step two re-weights channels of both streams with global response
normalization, builds a gate from two per-token channel MLPs, and blends:

    gate = sigmoid(MLP_e(GRN(E1))) * sigmoid(MLP_b(GRN(B)))
    out  = 2 * E1 * gate + B * (1 - gate)

All maps are [batch, channels, tokens]; the double weight on the encoder
stream preserves and emphasizes the already-enhanced feature. The backward
pass is exact and is validated against central finite differences.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, make_dataclass

import numpy as np

from .errors import DimensionError, DomainError, EvaluationError, _whole
from .numeric import _empty, _gelu_and_cdf, _gelu_grad_from_cdf, _sigmoid_into, make_rng, tensor

DEFAULT_GRN_EPS = 1e-6
DEFAULT_LN_EPS = 1e-5
# cap on the float64s in the perturbed [E, B, params] rows that one stacked
# forward of gradient_check evaluates; its stacked E holds under half of them
_FD_CHUNK_FLOATS = 1 << 16
# gradient_check's central-difference step h
_FD_STEP = 1e-5
# bound on the coordinates n = 2BCL + 5C^2 + 9C that gradient_check perturbs.
# Each perturbed problem holds n floats, and the check's time grew as n^2, at
# 0.007-0.14 us per unit over nine shapes at one OpenBLAS thread on a 2-vCPU
# x86-64 host, so the largest check takes about 35 s at most; n * BCL bounds
# the time only while C is small
_GRAD_CHECK_MAX_COORDS = 1 << 14

_MATRIX_FIELDS = ("fc1_w", "mlp_b_w1", "mlp_b_w2", "mlp_e_w1", "mlp_e_w2")
_VECTOR_FIELDS = (
    "fc1_b", "ln1_gamma", "ln1_beta", "grn_gamma", "grn_beta",
    "mlp_b_b1", "mlp_b_b2", "mlp_e_b1", "mlp_e_b2",
)
ARRAY_FIELDS = _MATRIX_FIELDS + _VECTOR_FIELDS


def _to_vector(self) -> np.ndarray:
    """Every array field, flattened and concatenated in ARRAY_FIELDS order."""
    return np.concatenate([getattr(self, n).ravel() for n in ARRAY_FIELDS])


@dataclass
class CCTMParams:
    """Learnable weights of the fusion block for channel count C."""

    fc1_w: np.ndarray
    fc1_b: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    grn_gamma: np.ndarray
    grn_beta: np.ndarray
    mlp_b_w1: np.ndarray
    mlp_b_b1: np.ndarray
    mlp_b_w2: np.ndarray
    mlp_b_b2: np.ndarray
    mlp_e_w1: np.ndarray
    mlp_e_b1: np.ndarray
    mlp_e_w2: np.ndarray
    mlp_e_b2: np.ndarray
    grn_eps: float = DEFAULT_GRN_EPS
    ln_eps: float = DEFAULT_LN_EPS

    @property
    def channels(self) -> int:
        return self.fc1_w.shape[0]

    def validate(self) -> None:
        c = self.channels
        for name in _MATRIX_FIELDS:
            if getattr(self, name).shape != (c, c):
                raise DimensionError(f"{name} must be ({c}, {c}), got {getattr(self, name).shape}")
        for name in _VECTOR_FIELDS:
            if getattr(self, name).shape != (c,):
                raise DimensionError(f"{name} must be ({c},), got {getattr(self, name).shape}")
        if not self.grn_eps > 0:
            raise DomainError(f"grn_eps must be positive, got {self.grn_eps}")
        if not 0 < self.ln_eps < np.inf:
            raise DomainError(f"ln_eps must be positive and finite, got {self.ln_eps}")

    @classmethod
    def random(cls, c: int, rng: np.random.Generator) -> "CCTMParams":
        """Every array uniform in +-1/sqrt(C); exercises all gradient paths."""
        c = _whole("C", c, 1, DimensionError)
        if 8 * c * c > sys.maxsize:  # numpy's bound on an array's bytes
            raise DimensionError(f"C must be at most {math.isqrt(sys.maxsize // 8)} "
                                 f"for a C x C float64 array, got {c}")
        bound = 1.0 / np.sqrt(c)
        kwargs = {
            name: rng.uniform(-bound, bound, size=(c, c) if name in _MATRIX_FIELDS else (c,))
            for name in ARRAY_FIELDS
        }
        return cls(**kwargs)

    to_vector = _to_vector

    def with_vector(self, vec: np.ndarray) -> "CCTMParams":
        """Copy of self with all arrays replaced from a flat vector. Leading
        axes of vec stay leading axes of every array, so a [K, 1, n] stack of
        vectors gives the [K, 1, ...] problem axis the forward broadcasts."""
        n = sum(getattr(self, name).size for name in ARRAY_FIELDS)
        if vec.shape[-1] != n:
            raise DimensionError(f"vector length {vec.shape[-1]}, expected {n}")
        out = {}
        off = 0
        lead = vec.shape[:-1]
        for name in ARRAY_FIELDS:
            arr = getattr(self, name)
            out[name] = vec[..., off : off + arr.size].reshape(lead + arr.shape).copy()
            off += arr.size
        return CCTMParams(**out, grn_eps=self.grn_eps, ln_eps=self.ln_eps)


CCTMGrads = make_dataclass(
    "CCTMGrads", [(name, np.ndarray) for name in ARRAY_FIELDS],
    namespace={
        "__doc__": "Parameter gradients, same layout as CCTMParams.",
        "__module__": __name__,
        "to_vector": _to_vector,
    },
)


@dataclass
class CCTMActivations:
    """Forward intermediates needed by the backward pass. The gate, the
    LayerNorm output and each MLP's GELU output are not held: the backward
    rebuilds them bit for bit from the maps below."""

    e: np.ndarray
    b: np.ndarray
    e_prime: np.ndarray
    e_cross1: np.ndarray
    # first-step internals
    ln_xhat: np.ndarray
    ln_inv_std: np.ndarray
    ln_cdf: np.ndarray      # normal CDF of the LayerNorm output
    # second-step internals, one set per stream
    grn_e: "_GrnState"
    grn_b: "_GrnState"
    mlp_e: "_MlpState"
    mlp_b: "_MlpState"
    sig_e: np.ndarray
    sig_b: np.ndarray


@dataclass
class _GrnState:
    x: np.ndarray
    norms: np.ndarray       # [B, C] per-channel spatial L2 norms
    scale: np.ndarray       # [B, C] norms / (mean + eps)
    denom: np.ndarray       # [B, 1] mean + eps
    out: np.ndarray


@dataclass
class _MlpState:
    x: np.ndarray
    pre: np.ndarray
    cdf: np.ndarray         # normal CDF of pre; gelu(pre) is pre * cdf


def _maps(*maps, p: CCTMParams | None = None) -> tuple[np.ndarray, ...]:
    """The maps as float64 arrays of one [batch, channels, tokens] shape;
    given p, also checks p and that it has the maps' channel count."""
    maps = tuple(map(tensor, maps))
    shape = maps[0].shape
    for a in maps:
        if a.ndim != 3:
            raise DimensionError(f"expected [batch, channels, tokens], got shape {a.shape}")
        if a.shape != shape:
            raise DimensionError(f"shape mismatch: {a.shape} vs {shape}")
    if p is not None:
        p.validate()
        if shape[1] != p.channels:
            raise DimensionError(f"channel count {shape[1]} != params C={p.channels}")
    return maps


def _fc(w, b, x, out):
    """Channel-mixing linear map applied per token, written into out:
    y[b,:,l] = w @ x[b,:,l] + b."""
    np.matmul(w, x, out=out)
    return np.add(out, b[..., None], out=out)


def _fc_weight_grad(d, x):
    """Gradient of sum(d * (w @ x)) w.r.t. w, summed over the batch."""
    return (d @ x.transpose(0, 2, 1)).sum(axis=0)


def gate_first(E, p: CCTMParams) -> np.ndarray:
    """First-step gate sigmoid(gelu(LN(FC(E)))), values in (0, 1)."""
    (E,) = _maps(E, p=p)
    return _gate_first_state(E, p, _empty(E.shape))[0]


# Each public step is _maps plus the kernel below that the forward runs, so
# cctm_forward is their composition bit for bit. A kernel builds each map in
# place in a fresh C-contiguous array, the layout the out-of-place expression
# would have, so reductions sum in the same order; a map that is not returned
# lives in the caller's scratch buffer, but for each MLP's GELU output, which
# is freed once read. Each chain keeps the operations and operand order of
# the one-line formula in its comment, so the results are those of the
# formulas bit for bit.

def _gate_first_state(E, p, scratch):
    z = _fc(p.fc1_w, p.fc1_b, E, out=scratch)
    # LayerNorm over the channel axis, per (batch, token) position; the
    # variance takes np.var's own steps on the deviations d = z - mean
    mean = z.mean(axis=-2, keepdims=True)
    xhat = np.subtract(z, mean, out=_empty(z.shape))
    var = np.add.reduce(np.square(xhat, out=scratch), axis=-2, keepdims=True) / z.shape[-2]
    inv_std = 1.0 / np.sqrt(var + p.ln_eps)
    np.multiply(xhat, inv_std, out=xhat)
    act, ln_cdf = _gelu_and_cdf(_ln_out(xhat, p, out=scratch))
    return _sigmoid_into(act, act), xhat, inv_std, ln_cdf


def _ln_out(xhat, p, out):
    # ln_out = gamma * xhat + beta
    np.multiply(p.ln1_gamma[..., None], xhat, out=out)
    return np.add(out, p.ln1_beta[..., None], out=out)


def cross_first(E, B, e_prime) -> np.ndarray:
    """First crossing: E + B * (1 - E')."""
    return _cross_first(*_maps(E, B, e_prime))


def _cross_first(E, B, e_prime):
    # e_cross1 = E + B * (1 - E')
    e_cross1 = np.subtract(1.0, e_prime, out=_empty(E.shape))
    np.multiply(B, e_cross1, out=e_cross1)
    return np.add(E, e_cross1, out=e_cross1)


def grn(x, gamma, beta, eps: float = DEFAULT_GRN_EPS) -> np.ndarray:
    """Global response normalization over [B, C, L]: channels are re-weighted
    by their spatial L2 norm relative to the cross-channel mean norm, with a
    residual: gamma * x * n + beta + x."""
    (x,) = _maps(x)
    gamma, beta = tensor(gamma), tensor(beta)
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"gamma and beta must be ({c},), got {gamma.shape} and {beta.shape}"
        )
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    return _grn_state(x, gamma, beta, eps, _empty(x.shape)).out


def _grn_state(x, gamma, beta, eps, scratch) -> _GrnState:
    norms = np.sqrt(np.multiply(x, x, out=scratch).sum(axis=-1))  # [B, C]
    denom = norms.mean(axis=-1, keepdims=True) + eps  # [B, 1]
    scale = norms / denom                             # [B, C]
    # out = gamma * x * scale + beta + x
    out = np.multiply(gamma[..., None], x, out=_empty(x.shape))
    np.multiply(out, scale[..., None], out=out)
    np.add(out, beta[..., None], out=out)
    np.add(out, x, out=out)
    return _GrnState(x=x, norms=norms, scale=scale, denom=denom, out=out)


def _grn_backward(state: _GrnState, gamma, d_out, scratch):
    """Overwrites d_out with the input gradient; scratch is a [B, C, L]
    buffer whose contents are lost."""
    x, scale = state.x, state.scale
    d_beta = d_out.sum(axis=(0, 2))
    np.multiply(d_out, x, out=scratch)
    d_gamma = np.multiply(scratch, scale[:, :, None], out=scratch).sum(axis=(0, 2))
    gx = gamma[None, :, None]
    # sensitivity to the per-channel scale n[b,c]
    np.multiply(d_out, gx, out=scratch)
    d_scale = np.multiply(scratch, x, out=scratch).sum(axis=2)  # [B, C]
    # n = g / (mean_c(g) + eps): full Jacobian through the mean
    c = x.shape[1]
    d_norm = d_scale / state.denom - (d_scale * state.norms).sum(
        axis=1, keepdims=True
    ) / (c * state.denom**2)
    safe = np.where(state.norms > 0, state.norms, 1.0)
    # d_x = d_out * (gx * scale + 1) + (d_norm / safe) * x
    np.multiply(d_out, gx * scale[:, :, None] + 1.0, out=d_out)
    np.multiply((d_norm / safe)[:, :, None], x, out=scratch)
    np.add(d_out, scratch, out=d_out)
    return d_gamma, d_beta


def _mlp_state(x, w1, b1, w2, b2) -> tuple[np.ndarray, _MlpState]:
    """The MLP's output, in a fresh array, and the state its backward needs."""
    pre = _fc(w1, b1, x, out=_empty(x.shape))
    hidden, cdf = _gelu_and_cdf(pre)
    out = _fc(w2, b2, hidden, out=_empty(x.shape))
    return out, _MlpState(x=x, pre=pre, cdf=cdf)


def _mlp_backward(state: _MlpState, w1, w2, d_out, scratch):
    """Overwrites d_out with the input gradient; scratch is a [B, C, L]
    buffer whose contents are lost."""
    # hidden = pre * cdf is the forward's 0.5 * pre * (1 + erf) bit for bit:
    # halving 1 + erf is exact, and halving pre is inexact only where pre is
    # subnormal, and there 1 + erf is exactly 1
    d_w2 = _fc_weight_grad(d_out, np.multiply(state.pre, state.cdf, out=scratch))
    d_hidden = np.matmul(w2.T, d_out, out=scratch)
    d_b2 = d_out.sum(axis=(0, 2))
    _gelu_grad_from_cdf(state.pre, state.cdf, out=d_out)
    d_pre = np.multiply(d_hidden, d_out, out=scratch)
    np.matmul(w1.T, d_pre, out=d_out)
    d_w1 = _fc_weight_grad(d_pre, state.x)
    d_b1 = d_pre.sum(axis=(0, 2))
    return d_w1, d_b1, d_w2, d_b2


def cross_gate(E, B, p: CCTMParams) -> np.ndarray:
    """Second-step gate: product of the two per-stream sigmoid maps."""
    E, B = _maps(E, B, p=p)
    return _cross_gate_state(E, B, p, _empty(E.shape))[0]


def _cross_gate_state(e1, B, p: CCTMParams, scratch):
    """The second-step gate of the streams e1 and B, then the GRN and MLP
    states and the sigmoid maps of each stream that the backward needs."""
    grn_e = _grn_state(e1, p.grn_gamma, p.grn_beta, p.grn_eps, scratch)
    grn_b = _grn_state(B, p.grn_gamma, p.grn_beta, p.grn_eps, scratch)
    logit_e, mlp_e = _mlp_state(grn_e.out, p.mlp_e_w1, p.mlp_e_b1, p.mlp_e_w2, p.mlp_e_b2)
    logit_b, mlp_b = _mlp_state(grn_b.out, p.mlp_b_w1, p.mlp_b_b1, p.mlp_b_w2, p.mlp_b_b2)
    sig_e = _sigmoid_into(logit_e, logit_e)
    sig_b = _sigmoid_into(logit_b, logit_b)
    gate = np.multiply(sig_e, sig_b, out=_empty(sig_e.shape))
    return gate, grn_e, grn_b, mlp_e, mlp_b, sig_e, sig_b


def cross_second(E, B, gate) -> np.ndarray:
    """Second crossing: 2 E * gate + B * (1 - gate)."""
    E, B, gate = _maps(E, B, gate)
    return _cross_second(E, B, gate, _empty(E.shape))


def _cross_second(e1, B, gate, scratch):
    # e_cf = 2 * e1 * gate + B * (1 - gate)
    e_cf = np.multiply(2.0, e1, out=_empty(e1.shape))
    np.multiply(e_cf, gate, out=e_cf)
    np.multiply(B, np.subtract(1.0, gate, out=scratch), out=scratch)
    return np.add(e_cf, scratch, out=e_cf)


def cctm_forward(E, B, p: CCTMParams) -> tuple[np.ndarray, CCTMActivations]:
    """Full fusion block; returns the output and all intermediates."""
    E, B = _maps(E, B, p=p)
    return _forward(E, B, p)


def _forward(E, B, p: CCTMParams) -> tuple[np.ndarray, CCTMActivations]:
    """Unchecked body of cctm_forward. E, B and every parameter array may
    carry leading problem axes, [K, B, C, L] maps with [K, 1, C, C] and
    [K, 1, C] parameters; the problems never mix, since LayerNorm and GRN
    reduce within one sample only.

    Each step is the kernel its public function runs, so the forward is the
    public steps' composition bit for bit. Every returned map is a fresh
    array. The maps that the backward rebuilds are not returned: the
    LayerNorm output lives in the one scratch buffer, with the maps no step
    returns, and the gate and the GELU outputs are freed once read."""
    scratch = _empty(E.shape)
    e_prime, ln_xhat, ln_inv_std, ln_cdf = _gate_first_state(E, p, scratch)
    e_cross1 = _cross_first(E, B, e_prime)
    gate, grn_e, grn_b, mlp_e, mlp_b, sig_e, sig_b = _cross_gate_state(
        e_cross1, B, p, scratch
    )
    acts = CCTMActivations(
        e=E, b=B, e_prime=e_prime, e_cross1=e_cross1,
        ln_xhat=ln_xhat, ln_inv_std=ln_inv_std, ln_cdf=ln_cdf,
        grn_e=grn_e, grn_b=grn_b, mlp_e=mlp_e, mlp_b=mlp_b,
        sig_e=sig_e, sig_b=sig_b,
    )
    return _cross_second(e_cross1, B, gate, scratch), acts


def cctm_backward(acts: CCTMActivations, p: CCTMParams, d_out):
    """Exact gradients of sum(d_out * output) w.r.t. E, B, and every
    parameter, given activations from cctm_forward with the same params."""
    (d_out,) = _maps(d_out, p=p)
    if d_out.shape != acts.e.shape:
        raise DimensionError(f"upstream shape {d_out.shape} != output {acts.e.shape}")

    # Every [B, C, L] intermediate lives in one of five buffers made here:
    # d_e1 (returned as d_e), d_b, x_e, x_b and scratch. Each chain keeps the
    # operations and operand order of the one-line formula in its comment,
    # so the results are those of the formulas bit for bit.
    d_e1, d_b, x_e, x_b, scratch = (_empty(d_out.shape) for _ in range(5))

    # out = 2 e1 g + B (1 - g)
    # d_e1 = 2 g * d_out; d_gate = (2 e1 - B) * d_out; d_b = (1 - g) * d_out,
    # with the forward's gate g = sig_e * sig_b rebuilt in d_b
    gate = np.multiply(acts.sig_e, acts.sig_b, out=d_b)
    np.multiply(np.multiply(2.0, gate, out=d_e1), d_out, out=d_e1)
    d_gate = np.multiply(2.0, acts.e_cross1, out=x_b)
    np.multiply(np.subtract(d_gate, acts.b, out=d_gate), d_out, out=d_gate)
    np.multiply(np.subtract(1.0, gate, out=d_b), d_out, out=d_b)

    # gate = sig_e * sig_b
    # d_logit_e = d_gate * sig_b * sig_e * (1 - sig_e), into x_e
    # d_logit_b = d_gate * sig_e * sig_b * (1 - sig_b), in place of d_gate
    d_logit_e = np.multiply(d_gate, acts.sig_b, out=x_e)
    np.multiply(d_logit_e, acts.sig_e, out=d_logit_e)
    np.multiply(d_logit_e, np.subtract(1.0, acts.sig_e, out=scratch), out=d_logit_e)
    d_logit_b = np.multiply(d_gate, acts.sig_e, out=x_b)
    np.multiply(d_logit_b, acts.sig_b, out=d_logit_b)
    np.multiply(d_logit_b, np.subtract(1.0, acts.sig_b, out=scratch), out=d_logit_b)

    # each MLP and GRN backward turns its d_logit buffer into the gradient
    # of its stream's input
    d_ew1, d_eb1, d_ew2, d_eb2 = _mlp_backward(
        acts.mlp_e, p.mlp_e_w1, p.mlp_e_w2, x_e, scratch
    )
    d_bw1, d_bb1, d_bw2, d_bb2 = _mlp_backward(
        acts.mlp_b, p.mlp_b_w1, p.mlp_b_w2, x_b, scratch
    )
    d_gamma_e, d_beta_e = _grn_backward(acts.grn_e, p.grn_gamma, x_e, scratch)
    d_gamma_b, d_beta_b = _grn_backward(acts.grn_b, p.grn_gamma, x_b, scratch)
    np.add(d_e1, x_e, out=d_e1)
    np.add(d_b, x_b, out=d_b)

    # e1 = E + B (1 - E')
    # d_b = d_b + d_e1 * (1 - E'); d_eprime = -d_e1 * B, into x_e
    one_minus_eprime = np.subtract(1.0, acts.e_prime, out=scratch)
    np.add(d_b, np.multiply(d_e1, one_minus_eprime, out=x_b), out=d_b)
    d_eprime = np.multiply(np.negative(d_e1, out=x_e), acts.b, out=x_e)

    # E' = sigmoid(gelu(LN(FC(E))))
    # d_act = d_eprime * E' * (1 - E'); d_ln_out = d_act * gelu'(ln_out),
    # with the forward's ln_out rebuilt in x_b
    d_act = np.multiply(d_eprime, acts.e_prime, out=x_e)
    np.multiply(d_act, one_minus_eprime, out=d_act)
    ln_out = _ln_out(acts.ln_xhat, p, out=x_b)
    d_ln_out = np.multiply(
        d_act, _gelu_grad_from_cdf(ln_out, acts.ln_cdf, out=scratch), out=x_e
    )
    d_ln_gamma = np.multiply(d_ln_out, acts.ln_xhat, out=scratch).sum(axis=(0, 2))
    d_ln_beta = d_ln_out.sum(axis=(0, 2))
    d_xhat = np.multiply(d_ln_out, p.ln1_gamma[None, :, None], out=x_e)
    m1 = d_xhat.mean(axis=1, keepdims=True)
    m2 = np.multiply(d_xhat, acts.ln_xhat, out=scratch).mean(axis=1, keepdims=True)
    # d_fc = inv_std * (d_xhat - m1 - xhat * m2)
    d_fc = np.subtract(d_xhat, m1, out=x_e)
    np.subtract(d_fc, np.multiply(acts.ln_xhat, m2, out=scratch), out=d_fc)
    np.multiply(acts.ln_inv_std, d_fc, out=d_fc)
    # d_e = d_e1 + fc1_w.T @ d_fc
    d_e = np.add(d_e1, np.matmul(p.fc1_w.T, d_fc, out=scratch), out=d_e1)
    d_fc1_w = _fc_weight_grad(d_fc, acts.e)
    d_fc1_b = d_fc.sum(axis=(0, 2))

    grads = CCTMGrads(
        fc1_w=d_fc1_w, fc1_b=d_fc1_b,
        ln1_gamma=d_ln_gamma, ln1_beta=d_ln_beta,
        grn_gamma=d_gamma_e + d_gamma_b, grn_beta=d_beta_e + d_beta_b,
        mlp_b_w1=d_bw1, mlp_b_b1=d_bb1, mlp_b_w2=d_bw2, mlp_b_b2=d_bb2,
        mlp_e_w1=d_ew1, mlp_e_b1=d_eb1, mlp_e_w2=d_ew2, mlp_e_b2=d_eb2,
    )
    return d_e, d_b, grads


def gradient_check(seed: int, shape: tuple[int, int, int]) -> float:
    """Max relative error between the analytic backward and central finite
    differences over E, B, and all parameters, for one random problem.

    The 2 n perturbed problems x0 +- h e_i, h = _FD_STEP, share stacked
    forwards, each holding at most _FD_CHUNK_FLOATS perturbed coordinates,
    and every objective is summed as a single forward's would be, so the
    result is the one-forward-per-coordinate result bit for bit."""
    if len(shape) != 3:
        raise DimensionError(f"expected three extents B,C,L, got {shape!r}")
    bsz, c, length = (_whole(name, v, 1, DimensionError) for name, v in zip("BCL", shape))
    coords = 2 * bsz * c * length + 5 * c * c + 9 * c
    if coords > _GRAD_CHECK_MAX_COORDS:
        raise DimensionError(
            f"a gradient check at B,C,L = {bsz},{c},{length} perturbs {coords} coordinates, "
            f"more than the bound of {_GRAD_CHECK_MAX_COORDS}")
    rng = make_rng(seed)
    p = CCTMParams.random(c, rng)
    E = rng.standard_normal((bsz, c, length))
    B = rng.standard_normal((bsz, c, length))
    w = rng.standard_normal((bsz, c, length))  # fixed upstream weighting

    out, acts = cctm_forward(E, B, p)
    d_e, d_b, grads = cctm_backward(acts, p, w)
    analytic = np.concatenate([d_e.ravel(), d_b.ravel(), grads.to_vector()])

    x0 = np.concatenate([E.ravel(), B.ravel(), p.to_vector()])
    n = x0.size
    numeric = np.empty(n)
    h = _FD_STEP
    step = max(1, _FD_CHUNK_FLOATS // (2 * n))
    for i0 in range(0, n, step):
        k = min(step, n - i0)
        idx = np.arange(k)
        rows = np.tile(x0, (2 * k, 1))
        rows[idx, i0 + idx] = x0[i0 : i0 + k] + h
        rows[k + idx, i0 + idx] = x0[i0 : i0 + k] - h
        ne = rows[:, : E.size].reshape((2 * k,) + E.shape)
        nb = rows[:, E.size : 2 * E.size].reshape((2 * k,) + B.shape)
        np_ = p.with_vector(rows[:, None, 2 * E.size :])
        # a non-finite objective is reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = (w * _forward(ne, nb, np_)[0]).reshape(2 * k, -1).sum(axis=1)
        fp, fm = f[:k], f[k:]
        bad = np.flatnonzero(~(np.isfinite(fp) & np.isfinite(fm)))
        if bad.size:
            raise EvaluationError(f"objective is non-finite near coordinate {i0 + bad[0]}")
        numeric[i0 : i0 + k] = (fp - fm) / (2.0 * h)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / scale))
