import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodkit import make_rng
from sodkit.boost import (
    BoostConfig,
    BoxSample,
    boost_loss,
    boost_loss_grad,
    cs_label,
    cs_pred,
    focal_loss,
    focal_loss_grad,
    positive_weight,
    round4,
    size_factor,
    weight_table,
)
from sodkit.errors import DomainError


def sample(y=1, p=0.5, h=8, w=8, h_hat=8, w_hat=8, side=1024):
    return BoxSample(H=side, W=side, h=h, w=w, y=y, p=p, h_hat=h_hat, w_hat=w_hat)


def test_size_factor_published_values():
    assert round4(size_factor(2, 2, 1024, 1024)) == 0.0020
    assert round4(size_factor(8, 8, 1024, 1024)) == 0.0078
    assert round4(size_factor(80, 80, 1024, 1024)) == 0.0781


def test_size_factor_full_frame():
    assert size_factor(480, 640, 480, 640) == 1.0


def test_size_factor_rejects_non_positive_and_oversize():
    with pytest.raises(DomainError):
        size_factor(0, 5, 100, 100)
    with pytest.raises(DomainError):
        size_factor(5, -1, 100, 100)
    with pytest.raises(DomainError):
        size_factor(101, 5, 100, 100)


@pytest.mark.parametrize("fields,message", [
    ({"y": 2}, "class indicator must be 0 or 1, got 2"),
    ({"p": 1.5}, r"probability must lie in \[0, 1\], got 1.5"),
    ({"h": 2048}, "positive box 2048x8 must fit inside image 1024x1024"),
])
def test_box_sample_rejects_fields_outside_their_domain(fields, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        sample(**fields)


def test_positive_weight_rejects_size_factors_outside_0_1():
    with pytest.raises(DomainError, match=r"^size factors must lie in \[0, 1\], got 1.5, 0.5$"):
        positive_weight(1.5, 0.5, BoostConfig())


@given(st.floats(1e-6, 1e6), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
@settings(max_examples=60)
def test_size_factor_scale_invariant(lam, fh, fw):
    base = size_factor(fh * 100, fw * 100, 100, 100)
    scaled = size_factor(fh * 100 * lam, fw * 100 * lam, 100 * lam, 100 * lam)
    assert math.isclose(base, scaled, rel_tol=1e-12)


def test_cs_label_negative_annihilates():
    assert cs_label(sample(y=0, h=500, w=500)) == 0.0


def test_cs_label_exact_values():
    assert cs_label(sample(h=8, w=8)) == 8 / 1024
    assert cs_label(sample(h=512, w=128)) == 0.25


def test_positive_weight_published_cells():
    cfg = BoostConfig(alpha=1.0, beta=1.0, gamma=0.25, N=1)
    assert round4(positive_weight(0.0020, 1.0, cfg)) == 0.9995
    cfg = BoostConfig(alpha=1.0, beta=0.05, gamma=0.25, N=1)
    assert round4(positive_weight(0.0020, 1.0, cfg)) == 0.7189
    cfg = BoostConfig(alpha=1.0, beta=0.1, gamma=0.25, N=1)
    assert round4(positive_weight(0.0781, 1.0, cfg)) == 0.6888


def test_positive_weight_full_frame_prediction_kills_term():
    for beta in (0.05, 0.25, 1.0):
        cfg = BoostConfig(alpha=0.25, beta=beta, gamma=2.0, N=1)
        assert positive_weight(1.0, 0.5, cfg) == 0.0


def test_boost_loss_positive_scalar_oracle():
    cfg = BoostConfig(alpha=0.25, beta=1.0, gamma=2.0, N=1)
    loss = boost_loss([sample(y=1, p=0.5)], cfg)
    cs = 8 / 1024
    direct = 0.25 * (1 - cs) ** 2 * cs * math.log(2.0)
    assert abs(loss - direct) < 1e-15
    assert abs(loss - 0.0013327) < 1e-7


def test_boost_loss_negative_scalar_oracle():
    cfg = BoostConfig(alpha=0.25, beta=1.0, gamma=2.0, N=1)
    loss = boost_loss([sample(y=0, p=0.5)], cfg)
    direct = 0.75 * 0.25 * math.log(2.0)
    assert abs(loss - direct) < 1e-15


def test_boost_loss_confident_positive_vanishes():
    cfg = BoostConfig(N=1)
    assert boost_loss([sample(y=1, p=1.0 - 1e-12)], cfg) < 1e-11


def test_boost_loss_empty_batch_rejected():
    with pytest.raises(DomainError):
        boost_loss([], BoostConfig(N=1))


def test_boost_grad_positive_closed_form():
    cfg = BoostConfig(alpha=0.25, beta=0.1, gamma=2.0, N=3)
    s = sample(y=1, p=0.3, h=20, w=40, h_hat=25, w_hat=30)
    (g,) = boost_loss_grad([s], cfg)
    expected = -positive_weight(cs_pred(s), cs_label(s), cfg) / 0.3 / 3
    assert math.isclose(g, expected, rel_tol=1e-15)


def test_boost_grad_negative_vanishes_at_zero():
    cfg = BoostConfig(alpha=0.25, beta=1.0, gamma=2.0, N=1)
    (g,) = boost_loss_grad([sample(y=0, p=1e-9)], cfg)
    assert abs(g) < 1e-7


def _fd_check(loss_fn, grad_fn, samples, tol):
    h = 1e-6
    grads = grad_fn(samples)
    worst = 0.0
    for i, s in enumerate(samples):
        up = [x if j != i else _with_p(x, s.p + h) for j, x in enumerate(samples)]
        dn = [x if j != i else _with_p(x, s.p - h) for j, x in enumerate(samples)]
        fd = (loss_fn(up) - loss_fn(dn)) / (2 * h)
        worst = max(worst, abs(fd - grads[i]) / max(abs(fd), abs(grads[i]), 1.0))
    assert worst < tol, worst


def _with_p(s, p):
    return BoxSample(H=s.H, W=s.W, h=s.h, w=s.w, y=s.y, p=p, h_hat=s.h_hat, w_hat=s.w_hat)


def random_samples(rng, n):
    out = []
    for _ in range(n):
        h, w = rng.uniform(1, 1024, 2)
        h_hat, w_hat = rng.uniform(1, 1024, 2)
        out.append(BoxSample(
            H=1024, W=1024, h=float(h), w=float(w), y=int(rng.integers(0, 2)),
            p=float(rng.uniform(1e-6, 1 - 1e-6)),
            h_hat=float(h_hat), w_hat=float(w_hat),
        ))
    return out


def test_boost_grad_matches_finite_differences():
    rng = make_rng(42)
    samples = random_samples(rng, 100)
    cfg = BoostConfig(alpha=0.25, beta=0.25, gamma=2.0, N=len(samples))
    _fd_check(lambda ss: boost_loss(ss, cfg), lambda ss: boost_loss_grad(ss, cfg), samples, 1e-6)


def test_focal_grad_matches_finite_differences():
    rng = make_rng(43)
    samples = random_samples(rng, 50)
    _fd_check(
        lambda ss: focal_loss(ss, 0.25, 2.0, n=50),
        lambda ss: focal_loss_grad(ss, 0.25, 2.0, n=50),
        samples, 1e-6,
    )


def test_focal_positive_scalar_oracle():
    loss = focal_loss([sample(y=1, p=0.5)], alpha=0.25, gamma=2.0)
    assert abs(loss - 0.25 * 0.25 * math.log(2.0)) < 1e-15
    assert abs(loss - 0.043322) < 1e-6


@pytest.mark.parametrize("fn", [focal_loss, focal_loss_grad])
@pytest.mark.parametrize("alpha,gamma,n", [
    (math.nan, 2.0, None), (1.5, 2.0, None), (-0.1, 2.0, None),
    (0.25, -3.0, None), (0.25, math.inf, None), (0.25, math.nan, 1),
    (0.25, 2.0, 0), (0.25, 2.0, -2),
])
def test_focal_rejects_parameters_outside_the_loss_domain(fn, alpha, gamma, n):
    samples = [sample(y=1, p=0.5), sample(y=0, p=0.3)]
    with pytest.raises(DomainError):
        fn(samples, alpha, gamma, n=n)


@pytest.mark.parametrize("fn", [
    lambda ss, n: BoostConfig(N=n),
    lambda ss, n: focal_loss(ss, 0.25, 2.0, n=n),
    lambda ss, n: focal_loss_grad(ss, 0.25, 2.0, n=n),
], ids=["BoostConfig", "focal_loss", "focal_loss_grad"])
@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2.5, 0.5, True, False, np.True_])
def test_object_count_must_be_a_whole_number_at_least_1(fn, n):
    samples = [sample(y=1, p=0.5), sample(y=0, p=0.3)]
    with pytest.raises(DomainError, match="N must be a positive integer"):
        fn(samples, n)


@pytest.mark.parametrize("n", [1, 2.0, np.int64(7), 2**70])
def test_object_count_accepts_whole_numbers(n):
    assert BoostConfig(N=n).N == n


def test_focal_confident_positive_vanishes():
    assert focal_loss([sample(y=1, p=1.0 - 1e-12)], 0.25, 2.0) < 1e-12


def test_negative_batches_identical_between_losses():
    rng = make_rng(44)
    samples = [s for s in random_samples(rng, 60) if True]
    negatives = [_with_y0(s) for s in samples]
    cfg = BoostConfig(alpha=0.25, beta=0.1, gamma=2.0, N=7)
    assert boost_loss(negatives, cfg) == focal_loss(negatives, 0.25, 2.0, n=7)
    assert boost_loss_grad(negatives, cfg) == focal_loss_grad(negatives, 0.25, 2.0, n=7)


def _with_y0(s):
    return BoxSample(H=s.H, W=s.W, h=s.h, w=s.w, y=0, p=s.p, h_hat=s.h_hat, w_hat=s.w_hat)


def test_reduction_linearity():
    rng = make_rng(45)
    a = random_samples(rng, 30)
    b = random_samples(rng, 20)
    cfg_a = BoostConfig(alpha=0.25, beta=0.5, gamma=2.0, N=30)
    cfg_b = BoostConfig(alpha=0.25, beta=0.5, gamma=2.0, N=20)
    cfg_ab = BoostConfig(alpha=0.25, beta=0.5, gamma=2.0, N=50)
    combined = boost_loss(a + b, cfg_ab)
    weighted = (30 * boost_loss(a, cfg_a) + 20 * boost_loss(b, cfg_b)) / 50
    assert math.isclose(combined, weighted, rel_tol=1e-12)


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.25, 1.0])
def test_positive_weight_monotonicity(beta):
    rng = make_rng(int(beta * 1000))
    cfg = BoostConfig(alpha=0.25, beta=beta, gamma=2.0, N=1)
    for _ in range(1000):
        lo, hi = sorted(rng.uniform(1e-4, 1.0 - 1e-4, 2))
        if lo == hi:
            continue
        cs = float(rng.uniform(0.01, 1.0))
        assert positive_weight(hi, cs, cfg) < positive_weight(lo, cs, cfg)
        cs_hat = float(rng.uniform(1e-4, 1.0 - 1e-4))
        assert positive_weight(cs_hat, lo, cfg) < positive_weight(cs_hat, hi, cfg)


SIZES = [(2, 2), (8, 8), (80, 80)]
BETAS = [0.05, 0.1, 0.25, 1.0]


def test_weight_table_convention_values():
    """The table derives every stage from the previous stage's rounded values;
    cells that the published table prints from unrounded size factors come out
    one ulp different (0.7875 / 0.0474 / 0.1433)."""
    t = weight_table(SIZES, 1024, 1024, gamma=0.25, betas=BETAS)
    assert t.cs_hats == [0.0020, 0.0078, 0.0781]
    assert t.weights[0] == [0.7189, 0.8248, 0.9423, 0.9995]
    assert t.weights[1] == [0.6813, 0.7875, 0.9156, 0.9980]
    assert t.weights[2] == [0.5882, 0.6888, 0.8286, 0.9799]
    assert t.rd[0] == [0.0552, 0.0474, 0.0292, 0.0015]
    assert t.rd[1] == [0.1583, 0.1433, 0.1050, 0.0185]


def test_weight_table_published_relative_distances():
    t = weight_table(SIZES, 1024, 1024, gamma=0.25, betas=BETAS)
    unit = BETAS.index(1.0)
    assert t.rd[0][BETAS.index(0.05)] == 0.0552
    assert t.rd[0][unit] == 0.0015
    assert t.rd[1][BETAS.index(0.05)] == 0.1583
    amp_small = t.amplification[0][BETAS.index(0.05)]
    amp_large = t.amplification[1][BETAS.index(0.05)]
    assert abs(amp_small - 36.8) < 0.1
    assert abs(amp_large - 8.6) < 0.1


def test_weight_table_csv_rendering():
    t = weight_table([(2, 2), (8, 8)], 1024, 1024, gamma=0.25, betas=[0.05, 1.0])
    lines = t.csv_lines()
    assert lines[0] == "size,cs_hat,w_beta_0.05,w_beta_1"
    assert lines[1] == "2x2,0.0020,0.7189,0.9995"
    assert lines[2] == "8x8,0.0078,0.6813,0.9980"
    assert lines[3].startswith("RD 2x2 vs 8x8,,0.0552 (36.8x),0.0015")


def test_round4_half_away_from_zero():
    assert round4(0.00005) == 0.0001
    assert round4(-0.00005) == -0.0001
    assert round4(0.78745) == 0.7875
    assert round4(0.719476) == 0.7195
