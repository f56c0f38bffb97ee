import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import erf

from sodkit import gelu, make_rng, sigmoid
from sodkit.numeric import (
    _empty, _empty_pool, _gelu_and_cdf, _gelu_grad_from_cdf, _sigmoid_into, gelu_grad, tensor,
)
from sodkit.errors import EvaluationError

from interpreter import fresh_python


def test_gelu_zero():
    assert gelu(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_gelu_saturates_for_large_input():
    x = np.array([20.0, 35.0])
    assert np.allclose(gelu(x), x)


def test_gelu_at_one():
    # 0.5 * (1 + erf(1/sqrt(2))), independently evaluated
    assert abs(float(gelu(np.array(1.0))) - 0.8413447460685429) < 1e-12


def test_sigmoid_symmetry_point():
    assert float(sigmoid(np.array(0.0))) == 0.5


def test_sigmoid_log3():
    assert abs(float(sigmoid(np.array(math.log(3.0)))) - 0.75) < 1e-15


def test_sigmoid_extreme_inputs_are_finite():
    out = sigmoid(np.array([-1e3, 1e3]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 1.0


@given(st.floats(-30.0, 30.0, allow_nan=False))
def test_sigmoid_reflection(x):
    s = sigmoid(np.array([x, -x]))
    assert abs(s[0] + s[1] - 1.0) < 1e-12


def _sigmoid_two_branch(x):
    """Reference: the logistic function evaluated separately on the two
    sides of zero through boolean masks."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SIGMOID_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]


@given(st.lists(st.one_of(st.floats(-800.0, 800.0), st.sampled_from(_SIGMOID_SPECIALS)),
                max_size=64))
@settings(max_examples=200)
def test_sigmoid_matches_two_branch_reference_bit_for_bit(values):
    x = np.array(values + _SIGMOID_SPECIALS, dtype=np.float64)
    want = _sigmoid_two_branch(x)
    fresh, in_place = np.empty_like(x), x.copy()
    assert _sigmoid_into(x, fresh) is fresh
    assert _sigmoid_into(in_place, in_place) is in_place
    for got in (sigmoid(x), fresh, in_place):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _gelu_ref(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _gelu_grad_ref(x):
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


_GELU_SPECIALS = _SIGMOID_SPECIALS + [5e-324, -5e-324, 1e-310, 1e308, -1e308, 38.0, -38.0]


def _bits(a):
    return np.asarray(a, dtype=np.float64).reshape(-1).view(np.uint64)


@given(st.lists(st.one_of(st.floats(), st.sampled_from(_GELU_SPECIALS)), max_size=64))
@settings(max_examples=200)
def test_gelu_and_grad_match_formulas_bit_for_bit(values):
    x = np.array(values + _GELU_SPECIALS, dtype=np.float64)
    with np.errstate(all="ignore"):
        want_grad = _gelu_grad_ref(x)
        cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        for got, want in ((gelu(x), _gelu_ref(x)), (gelu_grad(x), want_grad),
                          (_gelu_grad_from_cdf(x, cdf), want_grad)):
            assert got.shape == x.shape
            assert np.array_equal(_bits(got), _bits(want))


def test_gelu_is_its_input_times_its_cdf_bit_for_bit():
    # the identity by which the CCTM backward rebuilds each GELU output from
    # the MLP pre-activation and its CDF: 0.5 * x * (1 + erf) == x * cdf
    patterns = make_rng(7).integers(0, 2**64, size=300_000, dtype=np.uint64, endpoint=False)
    subnormals = [5e-324, -5e-324, 1.5e-323, 1e-310, -3.3e-310, 2.225073858507201e-308]
    x = np.concatenate([patterns.view(np.float64), _GELU_SPECIALS, subnormals])
    with np.errstate(all="ignore"):
        g, cdf = _gelu_and_cdf(x)
        assert np.array_equal(_bits(g), _bits(x * cdf))
    # random patterns hit NaNs and subnormals about once in 2,048 each
    nan_signs = np.signbit(x[np.isnan(x)])
    assert nan_signs.sum() > 50 and (~nan_signs).sum() > 50
    assert np.count_nonzero(np.abs(x) < np.finfo(np.float64).tiny) > 100


@pytest.mark.parametrize("v", [0.0, -0.0, 0.7, -2.5, math.inf, -math.inf, math.nan, -math.nan])
def test_elementwise_maps_of_0d_input_are_0d_arrays(v):
    with np.errstate(all="ignore"):
        for f, ref in ((gelu, _gelu_ref), (gelu_grad, _gelu_grad_ref),
                       (sigmoid, _sigmoid_two_branch)):
            got = f(np.array(v))
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert np.array_equal(_bits(got), _bits(ref(np.array([v]))))


# Each case below runs in a fresh interpreter, where no erf is loaded yet.
# _GELU_BITS, appended to a case, requires gelu and gelu_grad to give the bits
# of their formulas evaluated with scipy.special.erf. Each formula names its
# intermediates: on arrays of 256 KiB or more, numpy evaluates `a + (b * c)`
# in the temporary b * c, as `(b * c) + a`, which can give another NaN sign
_GELU_BITS = """
import math
import numpy as np
import scipy.special
from sodkit import gelu, make_rng
from sodkit.numeric import gelu_grad
specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 6.0, -6.0, 27.0, -27.0,
            math.inf, -math.inf, math.nan, -math.nan]
x = np.concatenate([specials, make_rng(0).standard_normal(10**5)])
with np.errstate(all="ignore"):
    one_plus_erf = 1.0 + scipy.special.erf(x / np.sqrt(2.0))
    half_x = 0.5 * x
    cdf = 0.5 * one_plus_erf
    gauss = np.exp(-0.5 * x * x)
    tail = x * gauss / np.sqrt(2.0 * np.pi)
    pairs = [(gelu(x), half_x * one_plus_erf), (gelu_grad(x), cdf + tail)]
for got, want in pairs:
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
print("bits ok")
"""


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_gelu_loads_only_the_erf_extension_and_scipy_special_reuses_it():
    proc = fresh_python("-c", f"""
import math, sys
import numpy as np
from sodkit import gelu, numeric
gelu(np.ones(3))
assert {_SCIPY_MODULES} == [], {_SCIPY_MODULES}
assert numeric._erf is not None
import scipy.special
assert scipy.special._special_ufuncs.erf is numeric._erf is scipy.special.erf
# a ufunc of another extension module, which the load left alone
assert scipy.special.expn(0, 1.0) == 1.0 / math.e
""" + _GELU_BITS)
    assert (proc.returncode, proc.stdout) == (0, "bits ok\n"), proc.stderr


def test_gelu_takes_the_erf_of_an_imported_scipy_special():
    proc = fresh_python("-c", f"""
import sys
import numpy as np
import scipy.special
from sodkit import gelu, numeric


def refused(name):
    raise AssertionError(f"loaded {{name}}")


numeric._load_special_extension = refused
before = {_SCIPY_MODULES}
gelu(np.ones(3))
assert numeric._erf is scipy.special.erf
assert {_SCIPY_MODULES} == before
""" + _GELU_BITS)
    assert (proc.returncode, proc.stdout) == (0, "bits ok\n"), proc.stderr


# a module name that scipy lacks, and a scipy.special extension without erf
@pytest.mark.parametrize("module", ["scipy.special._no_such_module", "scipy.special._comb"])
def test_gelu_without_the_erf_extension_imports_scipy_special(module):
    proc = fresh_python("-c", f"""
import sys
import numpy as np
from sodkit import gelu, numeric
numeric._ERF_MODULE = {module!r}
gelu(np.ones(3))
assert "scipy.special" in sys.modules
assert numeric._erf is sys.modules["scipy.special"].erf
""" + _GELU_BITS)
    assert (proc.returncode, proc.stdout) == (0, "bits ok\n"), proc.stderr


# pooled shapes: the trainer's [32, n] arrays at n = 2000 and 5000, their
# transpose, and a CCTM map
@pytest.mark.parametrize("shape", [(32, 2000), (2000, 32), (32, 5000), (2, 64, 1024)])
def test_pooled_empty_starts_on_a_cache_line(shape):
    def check(a):
        assert a.ctypes.data % 64 == 0
        assert a.shape == shape and a.dtype == np.float64
        assert a.flags.c_contiguous and a.flags.writeable
        a[...] = 1.5
        assert np.all(a == 1.5)

    # allocations of odd sizes in between move where the next heap block starts
    keep = []
    for pad in range(0, 64, 8):
        _empty_pool()
        keep.append(np.empty(pad + 1, dtype=np.uint8))
        fresh = _empty(shape)
        check(fresh)
        at = fresh.ctypes.data
        del fresh
        reused = _empty(shape)
        assert reused.ctypes.data == at  # the freed buffer, taken back
        check(reused)


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Oracle: central-difference gradient of a scalar-valued f, one
    coordinate at a time: (f(x + h e_i) - f(x - h e_i)) / (2 h)."""
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


def test_finite_diff_quadratic():
    grad = finite_diff_grad(lambda v: float((v**2).sum()), np.array([1.0, 2.0]), h=1e-5)
    assert np.all(np.abs(grad - [2.0, 4.0]) < 1e-6)


def test_finite_diff_constant():
    grad = finite_diff_grad(lambda v: 3.5, np.array([1.0, -2.0, 0.3]), h=1e-5)
    assert np.array_equal(grad, np.zeros(3))


def test_finite_diff_linear():
    rng = make_rng(3)
    x = rng.standard_normal(6)
    grad = finite_diff_grad(lambda v: float(v.sum()), x, h=1e-5)
    assert np.all(np.abs(grad - 1.0) < 1e-8)


def test_finite_diff_matches_analytic_quadratic_form():
    rng = make_rng(11)
    a = rng.standard_normal((5, 5))
    a = a + a.T
    x = rng.standard_normal(5)
    grad = finite_diff_grad(lambda v: float(v @ a @ v), x, h=1e-5)
    rel = np.abs(grad - 2.0 * a @ x) / np.maximum(np.abs(2.0 * a @ x), 1.0)
    assert rel.max() < 1e-6


def test_finite_diff_propagates_non_finite():
    def f(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.log(v[0]))

    with pytest.raises(EvaluationError):
        finite_diff_grad(f, np.array([0.0]), h=1e-5)


def test_rng_reproducible():
    a = make_rng(123).standard_normal(8)
    b = make_rng(123).standard_normal(8)
    assert np.array_equal(a, b)
    c = make_rng(124).standard_normal(8)
    assert not np.array_equal(a, c)

