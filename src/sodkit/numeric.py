"""Dense-tensor primitives: float64 arrays, elementary nonlinearities, a
deterministic RNG, and a central-finite-difference gradient oracle.

All operations are pure and keep finite inputs finite. Tensors are plain
numpy arrays in row-major order; every function promotes to float64.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy.special import erf

from .errors import DimensionError, DomainError, EvaluationError

DEFAULT_LN_EPS = 1e-5


def tensor(data) -> np.ndarray:
    """Coerce to a C-contiguous (row-major) float64 array."""
    return np.asarray(data, dtype=np.float64, order="C")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64). Same seed, same stream, any platform.

    The generator is single-owner mutable state; for concurrent use derive
    independent streams with ``split_rng`` instead of sharing one instance.
    """
    return np.random.Generator(np.random.PCG64(seed))


def split_rng(seed: int, n: int) -> list[np.random.Generator]:
    """n independent child generators derived from one seed."""
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]


def matmul(a, b) -> np.ndarray:
    """Matrix product of a [m, k] by b [k, n]."""
    a = tensor(a)
    b = tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents disagree: {a.shape} vs {b.shape}")
    return a @ b


def layer_norm(x, gamma, beta, eps: float = DEFAULT_LN_EPS) -> np.ndarray:
    """Normalize over the last axis (population variance), then apply the
    per-channel affine gamma * xhat + beta."""
    x = tensor(x)
    gamma = tensor(gamma)
    beta = tensor(beta)
    if x.shape[-1] == 0:
        raise DimensionError("layer_norm over an empty last axis")
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match C={x.shape[-1]}"
        )
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat = (x - mean) / np.sqrt(var + eps)
    return gamma * xhat + beta


def gelu(x) -> np.ndarray:
    """Exact GELU, 0.5 * x * (1 + erf(x / sqrt(2))). No tanh approximation."""
    x = tensor(x)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_grad(x) -> np.ndarray:
    """Derivative of the exact GELU."""
    x = tensor(x)
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def sigmoid(x) -> np.ndarray:
    """Logistic function, overflow-free for arbitrarily large |x|."""
    x = tensor(x)
    # exp(-|x|) lies in [0, 1], so it never overflows; min(x, -x) rather than
    # -abs(x) leaves the sign bit of a NaN input as it is
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar-valued f, one coordinate at a
    time: (f(x + h e_i) - f(x - h e_i)) / (2 h)."""
    x = tensor(x)
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    grad = np.empty_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"objective is non-finite near coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
