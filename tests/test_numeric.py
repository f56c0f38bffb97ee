import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodkit import finite_diff_grad, gelu, layer_norm, make_rng, matmul, sigmoid
from sodkit.errors import DimensionError, EvaluationError


def test_matmul_identity():
    eye = np.eye(2)
    b = np.array([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(eye, b), b)


def test_matmul_hand_dot_product():
    out = matmul([[1.0, 2.0]], [[3.0], [4.0]])
    assert out.shape == (1, 1)
    assert out[0, 0] == 11.0


def test_matmul_zero_annihilates():
    z = np.zeros((3, 4))
    b = make_rng(0).standard_normal((4, 2))
    assert np.array_equal(matmul(z, b), np.zeros((3, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(np.ones((2, 3)), np.ones((2, 2)))


def test_matmul_associative_on_random_chains():
    rng = make_rng(7)
    for _ in range(50):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        c = rng.standard_normal((3, 6))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.allclose(left, right, rtol=1e-10, atol=1e-12)


def test_layer_norm_constant_vector_is_zero():
    out = layer_norm(np.full(5, 3.0), np.ones(5), np.zeros(5))
    assert np.allclose(out, 0.0)


def test_layer_norm_unit_pair():
    out = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2), eps=1e-14)
    assert np.allclose(out, [1.0, -1.0], atol=1e-9)


def test_layer_norm_affine():
    out = layer_norm(np.array([1.0, -1.0]), np.full(2, 2.0), np.ones(2), eps=1e-14)
    assert np.allclose(out, [3.0, -1.0], atol=1e-9)


def test_layer_norm_empty_axis_errors():
    with pytest.raises(DimensionError, match="empty"):
        layer_norm(np.zeros((2, 0)), np.zeros(0), np.zeros(0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_layer_norm_standardizes(seed):
    rng = make_rng(seed)
    x = rng.standard_normal((4, 8)) * 1000.0
    out = layer_norm(x, np.ones(8), np.zeros(8))
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-10)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-8)


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
    got, want = sigmoid(x), _sigmoid_two_branch(x)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def test_split_rng_streams_are_deterministic_and_distinct():
    from sodkit import split_rng

    a1, a2 = (g.standard_normal(4) for g in split_rng(99, 2))
    b1, b2 = (g.standard_normal(4) for g in split_rng(99, 2))
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
    assert not np.array_equal(a1, a2)


def test_layer_norm_rejects_non_positive_eps():
    from sodkit.errors import DomainError

    with pytest.raises(DomainError):
        layer_norm(np.ones(3), np.ones(3), np.zeros(3), eps=0.0)


def test_matmul_rejects_non_2d():
    with pytest.raises(DimensionError):
        matmul(np.ones(3), np.ones((3, 2)))
