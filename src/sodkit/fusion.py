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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numeric import DEFAULT_LN_EPS, gelu, gelu_grad, sigmoid, tensor

DEFAULT_GRN_EPS = 1e-6

_MATRIX_FIELDS = ("fc1_w", "mlp_b_w1", "mlp_b_w2", "mlp_e_w1", "mlp_e_w2")
_VECTOR_FIELDS = (
    "fc1_b", "ln1_gamma", "ln1_beta", "grn_gamma", "grn_beta",
    "mlp_b_b1", "mlp_b_b2", "mlp_e_b1", "mlp_e_b2",
)
ARRAY_FIELDS = _MATRIX_FIELDS + _VECTOR_FIELDS


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
            raise DimensionError(f"grn_eps must be positive, got {self.grn_eps}")

    @classmethod
    def init(cls, c: int, rng: np.random.Generator) -> "CCTMParams":
        """Warm-start init: FC/MLP weights uniform in +-1/sqrt(C), biases 0,
        LN affine identity, GRN affine 0 so the block starts as a residual."""
        bound = 1.0 / np.sqrt(c)
        def w():
            return rng.uniform(-bound, bound, size=(c, c))
        return cls(
            fc1_w=w(), fc1_b=np.zeros(c),
            ln1_gamma=np.ones(c), ln1_beta=np.zeros(c),
            grn_gamma=np.zeros(c), grn_beta=np.zeros(c),
            mlp_b_w1=w(), mlp_b_b1=np.zeros(c), mlp_b_w2=w(), mlp_b_b2=np.zeros(c),
            mlp_e_w1=w(), mlp_e_b1=np.zeros(c), mlp_e_w2=w(), mlp_e_b2=np.zeros(c),
        )

    @classmethod
    def random(cls, c: int, rng: np.random.Generator) -> "CCTMParams":
        """Every array uniform in +-1/sqrt(C); exercises all gradient paths."""
        bound = 1.0 / np.sqrt(c)
        kwargs = {
            name: rng.uniform(-bound, bound, size=(c, c) if name in _MATRIX_FIELDS else (c,))
            for name in ARRAY_FIELDS
        }
        return cls(**kwargs)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, n).ravel() for n in ARRAY_FIELDS])

    def with_vector(self, vec: np.ndarray) -> "CCTMParams":
        """Copy of self with all arrays replaced from a flat vector."""
        out = {}
        off = 0
        for name in ARRAY_FIELDS:
            arr = getattr(self, name)
            out[name] = vec[off : off + arr.size].reshape(arr.shape).copy()
            off += arr.size
        if off != vec.size:
            raise DimensionError(f"vector length {vec.size}, expected {off}")
        return CCTMParams(**out, grn_eps=self.grn_eps, ln_eps=self.ln_eps)


@dataclass
class CCTMGrads:
    """Parameter gradients, same layout as CCTMParams."""

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

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, n).ravel() for n in ARRAY_FIELDS])


@dataclass
class CCTMActivations:
    """Forward intermediates needed by the backward pass."""

    e: np.ndarray
    b: np.ndarray
    e_prime: np.ndarray
    e_cross1: np.ndarray
    gate: np.ndarray
    e_cf: np.ndarray
    # first-step internals
    fc_out: np.ndarray
    ln_xhat: np.ndarray
    ln_inv_std: np.ndarray
    ln_out: np.ndarray
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
    hidden: np.ndarray
    out: np.ndarray


def _check_bcl(*arrays) -> None:
    shape = None
    for a in arrays:
        if a.ndim != 3:
            raise DimensionError(f"expected [batch, channels, tokens], got shape {a.shape}")
        if shape is None:
            shape = a.shape
        elif a.shape != shape:
            raise DimensionError(f"shape mismatch: {a.shape} vs {shape}")


def _fc(w, b, x):
    """Channel-mixing linear map applied per token: y[b,:,l] = w @ x[b,:,l] + b."""
    return w @ x + b[None, :, None]


def _fc_weight_grad(d, x):
    """Gradient of sum(d * (w @ x)) w.r.t. w, summed over the batch."""
    return (d @ x.transpose(0, 2, 1)).sum(axis=0)


def gate_first(E, p: CCTMParams) -> np.ndarray:
    """First-step gate sigmoid(gelu(LN(FC(E)))), values in (0, 1)."""
    E = tensor(E)
    _check_bcl(E)
    p.validate()
    if E.shape[1] != p.channels:
        raise DimensionError(f"channel count {E.shape[1]} != params C={p.channels}")
    return _gate_first_state(E, p)[0]


def _gate_first_state(E, p):
    z = _fc(p.fc1_w, p.fc1_b, E)
    # LayerNorm over the channel axis, per (batch, token) position
    mean = z.mean(axis=1, keepdims=True)
    var = z.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + p.ln_eps)
    xhat = (z - mean) * inv_std
    ln_out = p.ln1_gamma[None, :, None] * xhat + p.ln1_beta[None, :, None]
    act = gelu(ln_out)
    return sigmoid(act), z, xhat, inv_std, ln_out


def cross_first(E, B, e_prime) -> np.ndarray:
    """First crossing: E + B * (1 - E')."""
    E, B, e_prime = tensor(E), tensor(B), tensor(e_prime)
    _check_bcl(E, B, e_prime)
    return E + B * (1.0 - e_prime)


def grn(x, gamma, beta, eps: float = DEFAULT_GRN_EPS) -> np.ndarray:
    """Global response normalization over [B, C, L]: channels are re-weighted
    by their spatial L2 norm relative to the cross-channel mean norm, with a
    residual: gamma * x * n + beta + x."""
    x = tensor(x)
    _check_bcl(x)
    gamma, beta = tensor(gamma), tensor(beta)
    if not eps > 0:
        raise DimensionError(f"eps must be positive, got {eps}")
    return _grn_state(x, gamma, beta, eps).out


def _grn_state(x, gamma, beta, eps) -> _GrnState:
    norms = np.sqrt((x * x).sum(axis=2))            # [B, C]
    denom = norms.mean(axis=1, keepdims=True) + eps  # [B, 1]
    scale = norms / denom                            # [B, C]
    out = gamma[None, :, None] * x * scale[:, :, None] + beta[None, :, None] + x
    return _GrnState(x=x, norms=norms, scale=scale, denom=denom, out=out)


def _grn_backward(state: _GrnState, gamma, d_out):
    x, scale = state.x, state.scale
    d_beta = d_out.sum(axis=(0, 2))
    d_gamma = (d_out * x * scale[:, :, None]).sum(axis=(0, 2))
    gx = gamma[None, :, None]
    # sensitivity to the per-channel scale n[b,c]
    d_scale = (d_out * gx * x).sum(axis=2)           # [B, C]
    # n = g / (mean_c(g) + eps): full Jacobian through the mean
    c = x.shape[1]
    d_norm = d_scale / state.denom - (d_scale * state.norms).sum(
        axis=1, keepdims=True
    ) / (c * state.denom**2)
    safe = np.where(state.norms > 0, state.norms, 1.0)
    d_x = d_out * (gx * scale[:, :, None] + 1.0) + (d_norm / safe)[:, :, None] * x
    return d_x, d_gamma, d_beta


def _mlp_state(x, w1, b1, w2, b2) -> _MlpState:
    pre = _fc(w1, b1, x)
    hidden = gelu(pre)
    return _MlpState(x=x, pre=pre, hidden=hidden, out=_fc(w2, b2, hidden))


def _mlp_backward(state: _MlpState, w1, w2, d_out):
    d_hidden = w2.T @ d_out
    d_w2 = _fc_weight_grad(d_out, state.hidden)
    d_b2 = d_out.sum(axis=(0, 2))
    d_pre = d_hidden * gelu_grad(state.pre)
    d_x = w1.T @ d_pre
    d_w1 = _fc_weight_grad(d_pre, state.x)
    d_b1 = d_pre.sum(axis=(0, 2))
    return d_x, d_w1, d_b1, d_w2, d_b2


def cross_gate(E, B, p: CCTMParams) -> np.ndarray:
    """Second-step gate: product of the two per-stream sigmoid maps."""
    E, B = tensor(E), tensor(B)
    _check_bcl(E, B)
    p.validate()
    ge = _grn_state(E, p.grn_gamma, p.grn_beta, p.grn_eps)
    gb = _grn_state(B, p.grn_gamma, p.grn_beta, p.grn_eps)
    me = _mlp_state(ge.out, p.mlp_e_w1, p.mlp_e_b1, p.mlp_e_w2, p.mlp_e_b2)
    mb = _mlp_state(gb.out, p.mlp_b_w1, p.mlp_b_b1, p.mlp_b_w2, p.mlp_b_b2)
    return sigmoid(me.out) * sigmoid(mb.out)


def cross_second(E, B, gate) -> np.ndarray:
    """Second crossing: 2 E * gate + B * (1 - gate)."""
    E, B, gate = tensor(E), tensor(B), tensor(gate)
    _check_bcl(E, B, gate)
    return 2.0 * E * gate + B * (1.0 - gate)


def cctm_forward(E, B, p: CCTMParams) -> tuple[np.ndarray, CCTMActivations]:
    """Full fusion block; returns the output and all intermediates."""
    E, B = tensor(E), tensor(B)
    _check_bcl(E, B)
    p.validate()
    if E.shape[1] != p.channels:
        raise DimensionError(f"channel count {E.shape[1]} != params C={p.channels}")

    e_prime, fc_out, ln_xhat, ln_inv_std, ln_out = _gate_first_state(E, p)
    e_cross1 = E + B * (1.0 - e_prime)

    grn_e = _grn_state(e_cross1, p.grn_gamma, p.grn_beta, p.grn_eps)
    grn_b = _grn_state(B, p.grn_gamma, p.grn_beta, p.grn_eps)
    mlp_e = _mlp_state(grn_e.out, p.mlp_e_w1, p.mlp_e_b1, p.mlp_e_w2, p.mlp_e_b2)
    mlp_b = _mlp_state(grn_b.out, p.mlp_b_w1, p.mlp_b_b1, p.mlp_b_w2, p.mlp_b_b2)
    sig_e = sigmoid(mlp_e.out)
    sig_b = sigmoid(mlp_b.out)
    gate = sig_e * sig_b
    e_cf = 2.0 * e_cross1 * gate + B * (1.0 - gate)

    acts = CCTMActivations(
        e=E, b=B, e_prime=e_prime, e_cross1=e_cross1, gate=gate, e_cf=e_cf,
        fc_out=fc_out, ln_xhat=ln_xhat, ln_inv_std=ln_inv_std, ln_out=ln_out,
        grn_e=grn_e, grn_b=grn_b, mlp_e=mlp_e, mlp_b=mlp_b,
        sig_e=sig_e, sig_b=sig_b,
    )
    return e_cf, acts


def cctm_backward(acts: CCTMActivations, p: CCTMParams, d_out):
    """Exact gradients of sum(d_out * output) w.r.t. E, B, and every
    parameter, given activations from cctm_forward with the same params."""
    d_out = tensor(d_out)
    if d_out.shape != acts.e_cf.shape:
        raise DimensionError(f"upstream shape {d_out.shape} != output {acts.e_cf.shape}")
    if acts.e.shape[1] != p.channels:
        raise DimensionError("activations do not match params channel count")

    # out = 2 e1 g + B (1 - g)
    d_e1 = 2.0 * acts.gate * d_out
    d_gate = (2.0 * acts.e_cross1 - acts.b) * d_out
    d_b = (1.0 - acts.gate) * d_out

    # gate = sig_e * sig_b
    d_logit_e = d_gate * acts.sig_b * acts.sig_e * (1.0 - acts.sig_e)
    d_logit_b = d_gate * acts.sig_e * acts.sig_b * (1.0 - acts.sig_b)

    d_grn_e_out, d_ew1, d_eb1, d_ew2, d_eb2 = _mlp_backward(
        acts.mlp_e, p.mlp_e_w1, p.mlp_e_w2, d_logit_e
    )
    d_grn_b_out, d_bw1, d_bb1, d_bw2, d_bb2 = _mlp_backward(
        acts.mlp_b, p.mlp_b_w1, p.mlp_b_w2, d_logit_b
    )

    d_e1_grn, d_gamma_e, d_beta_e = _grn_backward(acts.grn_e, p.grn_gamma, d_grn_e_out)
    d_b_grn, d_gamma_b, d_beta_b = _grn_backward(acts.grn_b, p.grn_gamma, d_grn_b_out)
    d_e1 = d_e1 + d_e1_grn
    d_b = d_b + d_b_grn

    # e1 = E + B (1 - E')
    d_b = d_b + d_e1 * (1.0 - acts.e_prime)
    d_eprime = -d_e1 * acts.b

    # E' = sigmoid(gelu(LN(FC(E))))
    d_act = d_eprime * acts.e_prime * (1.0 - acts.e_prime)
    d_ln_out = d_act * gelu_grad(acts.ln_out)
    d_ln_gamma = (d_ln_out * acts.ln_xhat).sum(axis=(0, 2))
    d_ln_beta = d_ln_out.sum(axis=(0, 2))
    d_xhat = d_ln_out * p.ln1_gamma[None, :, None]
    m1 = d_xhat.mean(axis=1, keepdims=True)
    m2 = (d_xhat * acts.ln_xhat).mean(axis=1, keepdims=True)
    d_fc = acts.ln_inv_std * (d_xhat - m1 - acts.ln_xhat * m2)
    d_e = d_e1 + p.fc1_w.T @ d_fc
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


def gradient_check(seed: int, shape: tuple[int, int, int], h: float = 1e-5) -> float:
    """Max relative error between the analytic backward and central finite
    differences over E, B, and all parameters, for one random problem."""
    from .numeric import finite_diff_grad, make_rng

    bsz, c, length = shape
    if min(shape) < 1:
        raise DimensionError(f"every extent of B,C,L must be >= 1, got {shape}")
    rng = make_rng(seed)
    p = CCTMParams.random(c, rng)
    E = rng.standard_normal((bsz, c, length))
    B = rng.standard_normal((bsz, c, length))
    w = rng.standard_normal((bsz, c, length))  # fixed upstream weighting

    out, acts = cctm_forward(E, B, p)
    d_e, d_b, grads = cctm_backward(acts, p, w)
    analytic = np.concatenate([d_e.ravel(), d_b.ravel(), grads.to_vector()])

    def objective(vec):
        ne = vec[: E.size].reshape(E.shape)
        nb = vec[E.size : 2 * E.size].reshape(B.shape)
        np_ = p.with_vector(vec[2 * E.size :])
        return float((w * cctm_forward(ne, nb, np_)[0]).sum())

    x0 = np.concatenate([E.ravel(), B.ravel(), p.to_vector()])
    numeric = finite_diff_grad(objective, x0, h)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / scale))
