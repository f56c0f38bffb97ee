"""Adaptive-overlap tiling (CLAP): split an arbitrary C x H x W feature map
into fixed-size mini-patches with overlap, run a fixed-size spatial operator
on every patch with shared weights, and reassemble by averaging overlaps.

Per axis, the patch count is round-half-up of W / W_o and the nominal overlap
is floor((n * W_o - W) / (n - 1.5)). Two repairs keep coverage total:

* when rounding down leaves n * W_o < W (no arrangement of n patches can
  cover the axis), the count is bumped to ceil(W / W_o);
* the final patch is always placed flush against the far edge, which can
  only enlarge its overlap.

A single patch on an axis shorter than the patch edge is zero-padded on the
right/bottom and cropped after the operator. Ratios W/W_o in (1, 1.5] make
the formula overlap reach the patch width (stride <= 0) and are rejected.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, TilingError
from .numeric import tensor

FixedSizeOp = Callable[[np.ndarray], np.ndarray]

# a plan lists one start per patch, so an axis of more patches is refused
_MAX_AXIS_PATCHES = 1 << 20


@dataclass(frozen=True)
class PatchGrid:
    """A tiling plan for one H x W input and one H_o x W_o patch size."""

    W: int
    H: int
    W_o: int
    H_o: int
    n_w: int
    n_h: int
    l_w: int
    l_h: int
    starts_x: list[int] = field(default_factory=list)
    starts_y: list[int] = field(default_factory=list)
    pad_w: int = 0
    pad_h: int = 0

    @property
    def n_patches(self) -> int:
        return self.n_w * self.n_h

    def csv_row(self) -> str:
        sx = "|".join(str(s) for s in self.starts_x)
        sy = "|".join(str(s) for s in self.starts_y)
        return (
            f"{self.W},{self.H},{self.W_o},{self.H_o},"
            f"{self.n_w},{self.n_h},{self.l_w},{self.l_h},{sx};{sy}"
        )


def _plan_axis(extent: int, patch: int) -> tuple[int, int, list[int], int]:
    """Plan one axis; returns (count, overlap, starts, padding)."""
    n = (2 * extent + patch) // (2 * patch)  # floor(extent/patch + 0.5)
    n = max(n, 1)
    if n * patch < extent:
        n += 1
    if n > _MAX_AXIS_PATCHES:
        raise TilingError(f"extent {extent} with patch {patch} needs {n} patches on one "
                          f"axis, more than the bound of {_MAX_AXIS_PATCHES}")
    if n == 1:
        return 1, 0, [0], patch - extent
    overlap = (2 * (n * patch - extent)) // (2 * n - 3)  # floor(.../(n - 1.5))
    stride = patch - overlap
    if stride <= 0:
        raise TilingError(
            f"degenerate tiling: extent {extent} with patch {patch} "
            f"gives overlap {overlap} >= patch width"
        )
    last = extent - patch
    starts = [min(i * stride, last) for i in range(n - 1)] + [last]
    return n, overlap, starts, 0


def plan_grid(W: int, H: int, W_o: int, H_o: int) -> PatchGrid:
    """Plan the tiling of an H x W input into H_o x W_o patches."""
    for name, v in (("W", W), ("H", H), ("W_o", W_o), ("H_o", H_o)):
        if int(v) != v or v < 1:
            raise DimensionError(f"{name} must be a positive integer, got {v}")
    W, H, W_o, H_o = int(W), int(H), int(W_o), int(H_o)
    n_w, l_w, starts_x, pad_w = _plan_axis(W, W_o)
    n_h, l_h, starts_y, pad_h = _plan_axis(H, H_o)
    return PatchGrid(
        W=W, H=H, W_o=W_o, H_o=H_o,
        n_w=n_w, n_h=n_h, l_w=l_w, l_h=l_h,
        starts_x=starts_x, starts_y=starts_y,
        pad_w=pad_w, pad_h=pad_h,
    )


def split(x, grid: PatchGrid) -> list[np.ndarray]:
    """Cut x [C, H, W] into n_h * n_w patches [C, H_o, W_o], row-major over
    (y, x). Padding, if any, is zero-filled."""
    x = tensor(x)
    if x.ndim != 3 or x.shape[1] != grid.H or x.shape[2] != grid.W:
        raise DimensionError(f"input shape {x.shape} does not match grid ({grid.H}, {grid.W})")
    if grid.pad_h or grid.pad_w:
        canvas = np.zeros((x.shape[0], grid.H + grid.pad_h, grid.W + grid.pad_w))
        canvas[:, : grid.H, : grid.W] = x
    else:
        canvas = x
    patches = []
    for sy in grid.starts_y:
        for sx in grid.starts_x:
            patches.append(canvas[:, sy : sy + grid.H_o, sx : sx + grid.W_o].copy())
    return patches


def _coverage(starts: list[int], size: int, extent: int) -> np.ndarray:
    """How many of the patches starting at starts cover each axis position."""
    cnt = np.zeros(extent)
    for s in starts:
        cnt[s : s + size] += 1.0
    return cnt


def reassemble(patches: list[np.ndarray], grid: PatchGrid) -> np.ndarray:
    """Inverse of split: every output position is the arithmetic mean of all
    patch values covering it; padded regions are discarded.

    One pass over the patches: each row of patches is summed into one strip
    buffer and averaged over its columns, then added into the output, which
    is averaged over its rows at the end."""
    if len(patches) != grid.n_patches:
        raise DimensionError(f"expected {grid.n_patches} patches, got {len(patches)}")
    want = (tensor(patches[0]).shape[0], grid.H_o, grid.W_o)
    full_w = grid.W + grid.pad_w
    out = np.zeros((want[0], grid.H + grid.pad_h, full_w))
    strip = np.empty((want[0], grid.H_o, full_w))
    col_cnt = _coverage(grid.starts_x, grid.W_o, full_w)
    i = 0
    for sy in grid.starts_y:
        strip.fill(0.0)
        for sx in grid.starts_x:
            p = tensor(patches[i])
            if p.shape != want:
                raise DimensionError(f"patch {i} has shape {p.shape}, expected {want}")
            strip[:, :, sx : sx + grid.W_o] += p
            i += 1
        strip /= col_cnt
        out[:, sy : sy + grid.H_o] += strip
    out /= _coverage(grid.starts_y, grid.H_o, out.shape[1])[:, None]
    return out[:, : grid.H, : grid.W]


def clap_apply(x, op: FixedSizeOp, W_o: int, H_o: int) -> np.ndarray:
    """Apply a fixed-size H_o x W_o operator to an arbitrary C x H x W input
    by tiling, running the shared operator per patch, and reassembling."""
    x = tensor(x)
    if x.ndim != 3:
        raise DimensionError(f"expected a [C, H, W] input, got shape {x.shape}")
    grid = plan_grid(W=x.shape[2], H=x.shape[1], W_o=W_o, H_o=H_o)
    out_patches = []
    for i, patch in enumerate(split(x, grid)):
        y = tensor(op(patch))
        if y.shape != patch.shape:
            raise DimensionError(f"operator changed patch {i} shape {patch.shape} -> {y.shape}")
        out_patches.append(y)
    return reassemble(out_patches, grid)
