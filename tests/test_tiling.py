import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sodkit import clap_apply, make_rng, plan_grid, reassemble, split
from sodkit.errors import DimensionError, TilingError

from rejection import assert_rejected, whole


def oracle_axis(extent, patch):
    """Independent re-derivation of the per-axis plan.

    The count is found by scanning for the round-half-up integer, raised
    until the patches can reach the far edge; the overlap is the largest
    integer below the formula ratio, found by scanning; starts come from a
    placement walk. Returns None for the degenerate (stride <= 0) band.
    """
    n = 0
    while 2 * (n + 1) * patch <= 2 * extent + patch:
        n += 1
    n = max(n, 1)
    while n * patch < extent:
        n += 1
    if n == 1:
        return 1, 0, [0], patch - extent
    limit = 2 * (n * patch - extent)
    l = 0
    while (l + 1) * (2 * n - 3) <= limit:
        l += 1
    if patch - l <= 0:
        return None
    starts, pos = [], 0
    for _ in range(n - 1):
        starts.append(min(pos, extent - patch))
        pos += patch - l
    starts.append(extent - patch)
    covered = set()
    for s in starts:
        covered.update(range(s, s + patch))
    assert covered.issuperset(range(extent)), f"oracle gap at extent={extent}, patch={patch}"
    return n, l, starts, 0


PATCH_SIZES = (32, 56, 112, 224)


def test_plan_matches_oracle_over_full_sweep():
    for patch in PATCH_SIZES:
        for extent in range(1, 2049):
            expected = oracle_axis(extent, patch)
            if expected is None:
                with pytest.raises(TilingError):
                    plan_grid(extent, patch, patch, patch)
                continue
            n, l, starts, pad = expected
            grid = plan_grid(extent, patch, patch, patch)
            assert (grid.n_w, grid.l_w, grid.starts_x, grid.pad_w) == (n, l, starts, pad)
            # axes are planned identically
            grid_t = plan_grid(patch, extent, patch, patch)
            assert (grid_t.n_h, grid_t.l_h, grid_t.starts_y, grid_t.pad_h) == (n, l, starts, pad)


def test_plan_spot_values():
    g = plan_grid(800, 224, 224, 224)
    assert (g.n_w, g.l_w) == (4, 38)
    assert g.starts_x == [0, 186, 372, 576]
    g = plan_grid(1024, 224, 224, 224)
    assert (g.n_w, g.l_w) == (5, 27)
    assert g.starts_x == [0, 197, 394, 591, 800]
    g = plan_grid(224, 224, 224, 224)
    assert (g.n_w, g.n_h) == (1, 1)
    assert g.starts_x == [0] and g.pad_w == 0


def test_plan_bounds_the_patch_count_of_each_axis():
    bound = 2**20
    # 2**20 unit patches, then one more on either axis; a far larger count
    # runs only in the CLI test, under an address-space limit
    assert plan_grid(bound, 1, 1, 1).n_w == bound
    for W, H in ((bound + 1, 1), (1, bound + 1)):
        with pytest.raises(TilingError, match=f"needs {max(W, H)} patches .* bound of {bound}"):
            plan_grid(W, H, 1, 1)
    # a larger patch covers the same extent in a count within the bound
    assert plan_grid(10**9, 1, 1000, 1).n_w == 10**6


# a bool is an int that equals 1, and "10" a string that int() reads as 10;
# the message shows the value as given
@pytest.mark.parametrize("value,shown", [(True, "True"), (np.True_, "np.True_"), ("10", "'10'")])
def test_plan_rejects_a_bool_or_a_string_extent_naming_it(value, shown):
    assert_rejected(lambda: plan_grid(value, 10, 1, 1), DimensionError,
                    whole(f"W must be a positive integer, got {shown}"))


def test_split_hand_case_w10():
    grid = plan_grid(10, 1, 4, 1)
    assert (grid.n_w, grid.l_w, grid.starts_x) == (3, 1, [0, 3, 6])
    x = np.arange(10.0).reshape(1, 1, 10)
    patches = split(x, grid)
    assert [p.ravel().tolist() for p in patches] == [
        [0, 1, 2, 3], [3, 4, 5, 6], [6, 7, 8, 9]]


def test_split_single_patch_identity():
    x = make_rng(0).standard_normal((2, 5, 5))
    grid = plan_grid(5, 5, 5, 5)
    patches = split(x, grid)
    assert len(patches) == 1
    assert np.array_equal(patches[0], x)


def test_split_pads_with_zeros():
    grid = plan_grid(3, 2, 4, 4)
    assert (grid.pad_w, grid.pad_h) == (1, 2)
    x = np.ones((1, 2, 3))
    (patch,) = split(x, grid)
    assert patch.shape == (1, 4, 4)
    assert patch.sum() == 6.0
    assert np.array_equal(patch[0, :2, :3], x[0])


def test_reassemble_two_patch_overlap_mean():
    grid = plan_grid(7, 1, 4, 1)
    assert grid.starts_x == [0, 3]
    out = reassemble([np.full((1, 1, 4), 1.0), np.full((1, 1, 4), 3.0)], grid)
    assert out.ravel().tolist() == [1, 1, 1, 2, 3, 3, 3]


@given(
    st.integers(1, 600), st.integers(1, 600),
    st.sampled_from((32, 56, 224)), st.sampled_from((32, 56, 224)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_round_trip_exact(W, H, wo, ho, seed):
    try:
        grid = plan_grid(W, H, wo, ho)
    except TilingError:
        assume(False)
    x = make_rng(seed).standard_normal((1, H, W))
    assert np.array_equal(reassemble(split(x, grid), grid), x)


def _frozen_merge_axis(parts, starts, extent, axis):
    """Overlay slabs along one axis, dividing by the coverage count."""
    shape = list(parts[0].shape)
    shape[axis] = extent
    acc = np.zeros(shape)
    cnt = np.zeros(extent)
    idx = [slice(None)] * len(shape)
    size = parts[0].shape[axis]
    for part, s in zip(parts, starts):
        idx[axis] = slice(s, s + size)
        acc[tuple(idx)] += part
        cnt[s : s + size] += 1.0
    cshape = [1] * len(shape)
    cshape[axis] = extent
    return acc / cnt.reshape(cshape)


def _frozen_reassemble(patches, grid):
    """The two-pass reassemble that the one-pass one replaced, kept
    expression for expression as the bit-level reference: one merge per row
    of patches along the width, then one merge of the rows."""
    full_w = grid.W + grid.pad_w
    full_h = grid.H + grid.pad_h
    strips = []
    for j in range(grid.n_h):
        row = patches[j * grid.n_w : (j + 1) * grid.n_w]
        strips.append(_frozen_merge_axis(row, grid.starts_x, full_w, axis=2))
    out = _frozen_merge_axis(strips, grid.starts_y, full_h, axis=1)
    return out[:, : grid.H, : grid.W]


def test_reassemble_bit_identical_to_frozen_two_pass():
    rng = make_rng(0x7A)
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0])
    seen = {"padded": 0, "multi_row": 0, "multi_channel": 0}
    for _ in range(300):
        W, H = (int(v) for v in rng.integers(1, 161, size=2))
        wo, ho = (int(v) for v in rng.choice([5, 8, 13, 32], size=2))
        c = int(rng.integers(1, 4))
        try:
            grid = plan_grid(W, H, wo, ho)
        except TilingError:
            continue
        patches = [rng.standard_normal((c, ho, wo)) * 10.0 ** rng.integers(-3, 4)
                   for _ in range(grid.n_patches)]
        for p in patches[:: max(1, grid.n_patches // 4)]:
            p.flat[rng.integers(0, p.size, size=3)] = rng.choice(specials, size=3)
        if rng.integers(0, 4) == 0:
            # NaN patches whose signs alternate along rows and columns, so
            # NaNs of opposite sign meet in every overlap; a sum keeps its
            # first operand's NaN, so the order of the sums shows in the bits
            for k, p in enumerate(patches):
                p[c // 2 :] = np.nan if (k // grid.n_w + k % grid.n_w) % 2 else -np.nan
        got = reassemble(patches, grid)
        want = _frozen_reassemble(patches, grid)
        assert got.shape == want.shape == (c, H, W)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (W, H, wo, ho, c)
        seen["padded"] += bool(grid.pad_w or grid.pad_h)
        seen["multi_row"] += grid.n_h > 1 and grid.n_w > 1
        seen["multi_channel"] += c > 1
    assert min(seen.values()) >= 20, seen


def brute_force_mean(patches, grid):
    """Coverage-count averaging by direct accumulation over the padded canvas."""
    c = patches[0].shape[0]
    acc = np.zeros((c, grid.H + grid.pad_h, grid.W + grid.pad_w))
    cnt = np.zeros((grid.H + grid.pad_h, grid.W + grid.pad_w))
    k = 0
    for sy in grid.starts_y:
        for sx in grid.starts_x:
            acc[:, sy : sy + grid.H_o, sx : sx + grid.W_o] += patches[k]
            cnt[sy : sy + grid.H_o, sx : sx + grid.W_o] += 1
            k += 1
    assert cnt.min() >= 1, "coverage hole"
    return (acc / cnt)[:, : grid.H, : grid.W]


def test_coverage_constant_writer_oracle():
    rng = make_rng(99)
    for W, H, wo, ho in [(800, 600, 224, 224), (130, 300, 56, 56), (100, 65, 32, 32)]:
        grid = plan_grid(W, H, wo, ho)
        patches = [np.full((1, ho, wo), float(k)) for k in range(grid.n_patches)]
        expected = brute_force_mean(patches, grid)
        assert np.allclose(reassemble(patches, grid), expected, atol=1e-15)
        # and on random patch contents
        patches = [rng.standard_normal((2, ho, wo)) for _ in range(grid.n_patches)]
        expected = brute_force_mean(patches, grid)
        assert np.allclose(reassemble(patches, grid), expected, atol=1e-12)


def test_clap_apply_identity_op():
    x = make_rng(1).standard_normal((2, 300, 130))
    assert np.array_equal(clap_apply(x, lambda p: p, W_o=56, H_o=56), x)


def test_clap_apply_scaling_op():
    x = make_rng(2).standard_normal((1, 100, 91))
    assert np.array_equal(clap_apply(x, lambda p: 2.0 * p, W_o=32, H_o=32), 2.0 * x)


def test_clap_apply_linear_in_input():
    rng = make_rng(3)
    w = rng.standard_normal((56, 56)) / 8.0

    def op(p):
        return np.einsum("ab,cib->cia", w, p)

    x = rng.standard_normal((1, 120, 200))
    y = rng.standard_normal((1, 120, 200))
    lhs = clap_apply(2.5 * x - 1.25 * y, op, 56, 56)
    rhs = 2.5 * clap_apply(x, op, 56, 56) - 1.25 * clap_apply(y, op, 56, 56)
    assert np.allclose(lhs, rhs, atol=1e-12)


