"""Dense-tensor primitives: float64 arrays, elementary nonlinearities and a
deterministic RNG.

All operations are pure and keep finite inputs finite. Tensors are plain
numpy arrays in row-major order; every function promotes to float64.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf


def tensor(data) -> np.ndarray:
    """Coerce to a C-contiguous (row-major) float64 array."""
    return np.asarray(data, dtype=np.float64, order="C")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64). Same seed, same stream, any platform.

    The generator is single-owner mutable state: give each concurrent user
    its own generator instead of sharing one instance.
    """
    return np.random.Generator(np.random.PCG64(seed))


# The elementwise maps below run as in-place chains into np.empty_like
# buffers. Every ufunc gets an explicit out=, so a 0-d input stays an array,
# and each chain keeps the operand order of the one-line formula in its
# docstring, so results (NaN signs included) are those of the formula.

def _gelu_and_cdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gelu(x) = 0.5 * x * (1 + erf(x / sqrt(2))) and the normal CDF
    0.5 * (1 + erf(x / sqrt(2))), from one erf; x is a float64 array."""
    cdf = np.empty_like(x)
    erf(np.divide(x, np.sqrt(2.0), out=cdf), out=cdf)
    np.add(1.0, cdf, out=cdf)
    g = np.empty_like(x)
    np.multiply(0.5, x, out=g)
    np.multiply(g, cdf, out=g)
    np.multiply(0.5, cdf, out=cdf)
    return g, cdf


def _gelu_grad_from_cdf(
    x: np.ndarray, cdf: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """GELU derivative cdf + x * exp(-0.5 * x * x) / sqrt(2 pi), given the
    normal CDF of x as _gelu_and_cdf returns it; written into out if given,
    which must not share memory with x or cdf."""
    g = np.empty_like(x) if out is None else out
    np.multiply(-0.5, x, out=g)
    np.exp(np.multiply(g, x, out=g), out=g)
    np.multiply(x, g, out=g)
    np.divide(g, np.sqrt(2.0 * np.pi), out=g)
    return np.add(cdf, g, out=g)


def gelu(x) -> np.ndarray:
    """Exact GELU, 0.5 * x * (1 + erf(x / sqrt(2))). No tanh approximation."""
    return _gelu_and_cdf(tensor(x))[0]


def gelu_grad(x) -> np.ndarray:
    """Derivative of the exact GELU."""
    x = tensor(x)
    return _gelu_grad_from_cdf(x, _gelu_and_cdf(x)[1])


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigmoid(x) written into out, which may be x itself; x is a float64
    array. The numerator max(e, x >= 0) is 1 where x >= 0 and e elsewhere,
    since e lies in [0, 1], and a NaN e passes through it unchanged."""
    # exp(-|x|) lies in [0, 1], so it never overflows; min(x, -x) rather than
    # -abs(x) leaves the sign bit of a NaN input as it is
    e = np.empty_like(x)
    np.exp(np.minimum(x, np.negative(x, out=e), out=e), out=e)
    np.maximum(e, x >= 0, out=out)
    return np.divide(out, np.add(1.0, e, out=e), out=out)


def sigmoid(x) -> np.ndarray:
    """Logistic function, overflow-free for arbitrarily large |x|:
    where(x >= 0, 1 / (1 + e), e / (1 + e)) with e = exp(min(x, -x))."""
    x = tensor(x)
    return _sigmoid_into(x, np.empty_like(x))
