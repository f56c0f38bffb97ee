"""Independent references the benchmark checks sodkit's outputs against.

Nothing here imports sodkit: each reference re-derives the expected result
from the documented contract (README), by enumeration or plain numpy.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

GRAD_TOL = 1e-4  # cctm-check's pass criterion
FD_STEP = 1e-5
# cctm_directional_error on correct float64 gradients reads 4e-10 (median)
# to 3e-9 (max) over 40 ops; a 1% error in any one gradient block read
# 7e-5 to 4e-2, so the check's tolerance sits well between the two
FD_TOL = 1e-6


def plan_axis(extent: int, patch: int):
    """Per-axis CLAP plan by enumeration: (count, overlap, starts), or None
    when the plan is infeasible (overlap reaches the patch width)."""
    # count: the largest n with n <= extent / patch + 1/2, at least 1 ...
    n = 1
    while 2 * (n + 1) * patch <= 2 * extent + patch:
        n += 1
    # ... raised until n patches can reach the far edge
    while n * patch < extent:
        n += 1
    if n == 1:
        return 1, 0, [0]
    # overlap: the largest integer l with l <= (n * patch - extent) / (n - 1.5)
    overlap = 0
    while (overlap + 1) * (2 * n - 3) <= 2 * (n * patch - extent):
        overlap += 1
    if overlap >= patch:
        return None
    starts = [min(i * (patch - overlap), extent - patch) for i in range(n - 1)]
    starts.append(extent - patch)
    covered = np.zeros(extent, dtype=bool)
    for s in starts:
        covered[s : s + patch] = True
    if not covered.all():
        raise AssertionError(f"reference plan leaves a gap: extent={extent} patch={patch}")
    return n, overlap, starts


def clap_plan_row(W: int, H: int, pw: int, ph: int) -> str | None:
    """Expected `clap-plan` CSV row, or None when either axis is infeasible."""
    ax, ay = plan_axis(W, pw), plan_axis(H, ph)
    if ax is None or ay is None:
        return None
    sx = "|".join(map(str, ax[2]))
    sy = "|".join(map(str, ay[2]))
    return f"{W},{H},{pw},{ph},{ax[0]},{ay[0]},{ax[1]},{ay[1]},{sx};{sy}"


def half_up4(x: float) -> float:
    """Round the shortest decimal form of x half away from zero to 4 places."""
    q = Fraction(repr(x))
    n = math.floor(abs(q) * 10000 + Fraction(1, 2))
    return math.copysign(n / 10000, x)


def weight_table_lines(sizes, H: float, W: float, gamma: float, betas) -> list[str]:
    """Expected `boost-table` output: 4-decimal half-up weights per size and
    beta, relative distances of consecutive rows, and amplification over
    the beta = 1 column."""
    cs = [half_up4(math.sqrt((h / H) * (w / W))) for h, w in sizes]
    weights = [[half_up4((1.0 - c**b) ** gamma) for b in betas] for c in cs]
    lines = ["size,cs_hat," + ",".join(f"w_beta_{b:g}" for b in betas)]
    for (h, w), c, row in zip(sizes, cs, weights):
        lines.append(f"{h:g}x{w:g},{c:.4f}," + ",".join(f"{v:.4f}" for v in row))
    unit = list(betas).index(1.0) if 1.0 in betas else None
    for i in range(len(sizes) - 1):
        rd = [half_up4(abs(a - b) / min(a, b)) for a, b in zip(weights[i], weights[i + 1])]
        cells = []
        for j, v in enumerate(rd):
            if unit is None or j == unit or rd[unit] == 0:
                cells.append(f"{v:.4f}")
            else:
                cells.append(f"{v:.4f} ({v / rd[unit]:.1f}x)")
        (ha, wa), (hb, wb) = sizes[i], sizes[i + 1]
        lines.append(f"RD {ha:g}x{wa:g} vs {hb:g}x{wb:g},," + ",".join(cells))
    return lines


def score_stats_expected(w, h, score, threshold: float, edges):
    """(labels, counts, means) for `score-stats`, from numpy arrays."""
    edges = np.asarray(edges, dtype=float)
    size = np.sqrt(w * h)
    keep = (score >= threshold) & (size >= edges[0])
    idx = np.searchsorted(edges[1:], size[keep], side="right")
    counts = np.bincount(idx, minlength=len(edges))
    sums = np.bincount(idx, weights=score[keep], minlength=len(edges))
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts
    labels = [f"[{a:g},{b:g})" for a, b in zip(edges, edges[1:])] + [f"[{edges[-1]:g},inf)"]
    return labels, counts, means


def array_fields(obj) -> list[str]:
    """Names of the ndarray-valued fields of a dataclass instance."""
    return [
        f.name for f in dataclasses.fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)
    ]


def cctm_directional_error(forward, E, B, p, G, d_e, d_b, grads, rng) -> float:
    """Relative error of the analytic directional derivative of
    sum(G * forward(E, B, p)) against a central finite difference along one
    random direction over E, B and every parameter array.

    The direction has unit norm on each of these blocks, so that a wrong
    gradient for a small block, such as a bias, is not drowned out by the
    large input blocks."""

    def unit(shape):
        v = rng.standard_normal(shape)
        return v / np.linalg.norm(v)

    names = array_fields(p)
    v_e, v_b = unit(E.shape), unit(B.shape)
    v_p = {n: unit(getattr(p, n).shape) for n in names}
    analytic = float((d_e * v_e).sum() + (d_b * v_b).sum())
    analytic += sum(float((getattr(grads, n) * v_p[n]).sum()) for n in names)

    def objective(s):
        moved = dataclasses.replace(p, **{n: getattr(p, n) + s * v_p[n] for n in names})
        return float((G * forward(E + s * v_e, B + s * v_b, moved)[0]).sum())

    numeric = (objective(FD_STEP) - objective(-FD_STEP)) / (2.0 * FD_STEP)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
