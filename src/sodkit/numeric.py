"""Dense-tensor primitives: float64 arrays, elementary nonlinearities, a
sample reduction in a fixed order and a deterministic RNG.

All operations are pure. They keep finite inputs finite up to about
sqrt(DBL_MAX) = 1.3e154; above it a sum of squares overflows, so a CCTM
forward returns non-finite values, and gelu_grad warns of overflow in x * x
(ROADMAP item 15). Tensors are plain numpy arrays in row-major order; every
function promotes to float64.

scipy supplies the exact erf of the GELU. The first GELU evaluated (gelu,
gelu_grad or a CCTM forward) loads it, once; importing this module does not,
so tiling, the boost loss, the trainer and the COCO reader never load it. The
GELU takes the erf of the extension module that defines the ufunc: from
sys.modules if scipy.special has been imported, else loaded alone, without
the scipy.special package (about 0.2 s and 25 MB more), and sys.modules left
as it was. On a scipy without that module it imports scipy.special's erf.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading

import numpy as np

from .errors import DimensionError, DomainError, _whole

# Arrays of at least _POOL_MIN_BYTES are built in buffers that earlier arrays
# freed, so that a repeated step reuses pages it has already touched, and a
# new buffer starts on a _CACHE_LINE boundary, where passes ran 3-7% faster;
# at most _POOL_MAX_BYTES of freed buffers wait for reuse (see _Pool.give).
# Smaller arrays are plain np.empty: placing one would cost about 2 us.
_POOL_MIN_BYTES = 1 << 18
_POOL_MAX_BYTES = 32 << 20
_CACHE_LINE = 64


def tensor(data) -> np.ndarray:
    """Coerce bool, integer or float input to a C-contiguous (row-major)
    float64 array; reject ragged input and any other dtype (complex, text,
    object, datetime, structured)."""
    if getattr(data, "dtype", None) != np.float64:
        try:
            data = np.asarray(data)
        except ValueError as exc:
            raise DimensionError(f"not a rectangular array: {exc}") from None
        if data.dtype.kind not in "biuf":
            what = "an object" if data.dtype.kind == "O" else f"a {data.dtype}"
            raise DomainError(f"expected real values, got {what} array")
    return np.asarray(data, dtype=np.float64, order="C")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64). Same seed, same stream, any platform.

    The generator is single-owner mutable state: give each concurrent user
    its own generator instead of sharing one instance. A seed that is not a
    whole number >= 0 raises DomainError.
    """
    return np.random.Generator(np.random.PCG64(_whole("seed", seed, 0)))


class _Pool:
    """Freed float64 buffers, keyed by element count."""

    def __init__(self, max_bytes: int):
        # kept on the instance, so that a buffer freed while the interpreter
        # shuts down finds it after the module's globals are gone
        self.max_bytes = max_bytes
        self.free: dict[int, list[np.ndarray]] = {}
        self.lock = threading.Lock()

    def take(self, size: int) -> np.ndarray:
        # pop, not a length test and a pop, which two threads could interleave
        try:
            return self.free[size].pop()
        except (KeyError, IndexError):
            # np.empty promises 16 bytes: take a line more and slice at one
            raw = np.empty(size + _CACHE_LINE // 8)
            start = -raw.ctypes.data % _CACHE_LINE // 8
            return raw[start:start + size]

    def give(self, data: np.ndarray) -> None:
        """Keep data for reuse if the bytes held stay within max_bytes, else
        drop it; a concurrent take only lowers the bytes held."""
        # a collection can run a _Buffer's __del__ while this thread holds
        # the lock, so a busy lock drops the buffer instead of waiting on itself
        if not self.lock.acquire(blocking=False):
            return
        try:
            held = sum(8 * size * len(bufs) for size, bufs in self.free.items())
            if held + data.nbytes <= self.max_bytes:
                self.free.setdefault(data.size, []).append(data)
        finally:
            self.lock.release()


class _Buffer:
    """Owner of one pooled buffer, shown to numpy as an array of one shape.
    Each array made from it holds it as its .base, directly or through the
    array it views, so it is collected only when no array uses the buffer;
    then it gives the buffer back to its pool."""

    __slots__ = ("pool", "data", "__array_interface__")

    def __init__(self, pool: _Pool, data: np.ndarray, shape: tuple[int, ...]):
        self.pool, self.data = pool, data
        self.__array_interface__ = dict(data.__array_interface__, shape=shape)

    def __del__(self):
        self.pool.give(self.data)


_POOL = _Pool(_POOL_MAX_BYTES)


def _empty_pool() -> None:
    """Drop the freed buffers that wait for reuse, so that the next arrays
    are allocated as in a fresh process; for tests."""
    _POOL.free.clear()


def _empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float64 array that shares memory with
    no live array. One of at least _POOL_MIN_BYTES starts on a 64-byte cache
    line, reuses a freed buffer where one of its size waits, and does not own
    its data."""
    size = math.prod(shape)
    if size * 8 < _POOL_MIN_BYTES:
        return np.empty(shape)
    return np.asarray(_Buffer(_POOL, _POOL.take(size), shape))


_SAMPLE_BLOCK = 256


def _sample_sum_product(a, b) -> np.ndarray:
    """a @ b.T for a [m, n] and b [k, n] with samples on the last axis,
    reduced over fixed blocks of _SAMPLE_BLOCK samples: one stacked product
    of the whole blocks, their sum in block order, then the tail's product.

    OpenBLAS splits one long reduction between its threads, so a plain
    a @ b.T changes its last bits with the thread count; a block is too
    short to split, so these bits do not (reproducible summation by fixed
    blocking, Demmel and Nguyen, ARITH 2013)."""
    (m, n), k = a.shape, len(b)
    whole = n - n % _SAMPLE_BLOCK
    out = a[:, whole:] @ b[:, whole:].T
    if whole:
        a_blocks = a[:, :whole].reshape(m, -1, _SAMPLE_BLOCK).transpose(1, 0, 2)
        b_blocks = b[:, :whole].reshape(k, -1, _SAMPLE_BLOCK).transpose(1, 2, 0)
        out += np.matmul(a_blocks, b_blocks).sum(axis=0)
    return out


# the extension module of scipy.special that defines the erf ufunc in recent
# scipy releases (1.17 among them); an imported scipy.special holds it in
# sys.modules under this name
_ERF_MODULE = "scipy.special._special_ufuncs"
_erf = None
# held while the erf's first-use load runs
_LOAD_LOCK = threading.Lock()


def _load_erf():
    """scipy's erf ufunc, loaded at the first call and kept: the erf of
    _ERF_MODULE, taken from sys.modules or else loaded alone; on a scipy
    whose _ERF_MODULE is missing or lacks erf, erf from scipy.special."""
    global _erf
    with _LOAD_LOCK:
        if _erf is None:
            module = sys.modules.get(_ERF_MODULE) or _load_special_extension(_ERF_MODULE)
            if hasattr(module, "erf"):
                _erf = module.erf
            else:
                from scipy.special import erf
                _erf = erf
        return _erf


def _load_special_extension(name: str):
    """The extension module name of scipy.special, loaded without running
    scipy's or scipy.special's __init__; None if scipy has no such file.
    sys.modules is left as it was, so a later import of scipy.special
    imports the module by the usual path and binds it."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return None
    spec = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "special"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec(name)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def _after_fork_in_child() -> None:
    """A forked child has none of its parent's other threads, so a lock that
    one of them held at the fork would stay held: make the locks anew."""
    global _LOAD_LOCK
    _LOAD_LOCK = threading.Lock()
    _POOL.lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


# The elementwise maps below run as in-place chains into _empty buffers.
# Every ufunc gets an explicit out=, so a 0-d input stays an array, and the
# results (NaN signs included) are those of the one-line formula in the
# docstring; every chain but the GELU's keeps that formula's operand order.
#
# The GELU runs erf once, on |a| for a = x / sqrt(2), and restores the sign
# and the CDF's half with one multiply: cdf = 0.5 + copysign(0.5, a) * erf(|a|),
# then gelu = x * cdf. scipy's erf evaluates a negative a as -erf(-a) behind a
# branch that mixed signs mispredict: on x86-64 its erf of standard-normal
# values ran 2.4x slower than on the same values sorted. The bits are the
# formula's by three identities:
# - scipy's erf is odd bit for bit, and returns a sign-clear NaN for a NaN of
#   either sign, which a multiply by +-0.5 keeps (a copysign onto erf would not);
# - 0.5 + 0.5 * e rounds as 0.5 * (1 + e), since scaling by 0.5 is exact
#   wherever it can still change the sum;
# - x * cdf is 0.5 * x * (1 + erf) bit for bit, as the CCTM backward relies on.
# Never pass where= to erf: with scipy 1.17.1, erf(v, out=v, where=mask)
# corrupts the heap, and the interpreter aborts.

def _gelu_and_cdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gelu(x) = 0.5 * x * (1 + erf(x / sqrt(2))) and the normal CDF
    0.5 * (1 + erf(x / sqrt(2))), from one erf; x is a float64 array."""
    # loaded at the first GELU, not with this module, so that what never
    # evaluates one starts without scipy; then read without taking the lock
    erf = _erf or _load_erf()
    cdf, g = _empty(x.shape), _empty(x.shape)
    a = np.divide(x, np.sqrt(2.0), out=cdf)
    np.copysign(0.5, a, out=g)  # the sign waits in g until g is written
    erf(np.abs(a, out=cdf), out=cdf)
    np.multiply(g, cdf, out=cdf)
    np.add(0.5, cdf, out=cdf)
    np.multiply(x, cdf, out=g)
    return g, cdf


def _gelu_grad_from_cdf(
    x: np.ndarray, cdf: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """GELU derivative cdf + x * exp(-0.5 * x * x) / sqrt(2 pi), given the
    normal CDF of x as _gelu_and_cdf returns it; written into out if given,
    which must not share memory with x or cdf."""
    g = _empty(x.shape) if out is None else out
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
    e = _empty(x.shape)
    np.exp(np.minimum(x, np.negative(x, out=e), out=e), out=e)
    np.maximum(e, x >= 0, out=out)
    return np.divide(out, np.add(1.0, e, out=e), out=out)


def sigmoid(x) -> np.ndarray:
    """Logistic function, overflow-free for arbitrarily large |x|:
    where(x >= 0, 1 / (1 + e), e / (1 + e)) with e = exp(min(x, -x))."""
    x = tensor(x)
    return _sigmoid_into(x, _empty(x.shape))
