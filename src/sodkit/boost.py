"""Size-aware classification loss for small-object detection.

A category-size soft label cs = sqrt((h/H) * (w/W)) * y folds the normalized
box size into the class target. The boost loss re-weights each positive term
by alpha * (1 - cs_hat^beta)^gamma * cs^beta, where cs_hat is the predicted
box's size factor, so small positives carry more weight than large ones; the
negative term is the alpha-balanced focal term unchanged. beta < 1 spreads
the weights of near-zero size factors apart, which is what makes the
re-weighting effective on very small objects.

The weight-table builder reproduces the published per-size weight analysis:
size factors are rounded half-away-from-zero to 4 decimals before the weight
columns are computed, relative distances between consecutive sizes are
computed from the rounded weights, and amplification ratios from the rounded
relative distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import DomainError, _whole

P_CLAMP = 1e-12


@dataclass(frozen=True)
class BoxSample:
    """One matched (prediction, target) pair.

    H, W are the image extents; h, w the ground-truth box extents; y the
    binary class indicator; p the predicted class probability; h_hat, w_hat
    the predicted box extents.
    """

    H: float
    W: float
    h: float
    w: float
    y: int
    p: float
    h_hat: float
    w_hat: float

    def __post_init__(self):
        if self.y not in (0, 1):
            raise DomainError(f"class indicator must be 0 or 1, got {self.y}")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"probability must lie in [0, 1], got {self.p}")
        if self.y == 1 and not (0 < self.h <= self.H and 0 < self.w <= self.W):
            raise DomainError(
                f"positive box {self.h}x{self.w} must fit inside image {self.H}x{self.W}"
            )


@dataclass(frozen=True)
class BoostConfig:
    """Loss hyper-parameters; N is the object count for the 1/N reduction."""

    alpha: float = 0.25
    beta: float = 1.0
    gamma: float = 2.0
    N: int = 1

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise DomainError(f"beta must lie in (0, 1], got {self.beta}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise DomainError(f"gamma must be finite and >= 0, got {self.gamma}")
        _whole("N", self.N, 1)


def size_factor(h: float, w: float, H: float, W: float) -> float:
    """Geometric normalized size sqrt((h/H) * (w/W)) in (0, 1]."""
    if not all(0 < v < math.inf for v in (h, w, H, W)):
        raise DomainError(
            f"extents must be positive and finite, got box {h}x{w} in image {H}x{W}"
        )
    if h > H or w > W:
        raise DomainError(f"box {h}x{w} exceeds image {H}x{W}")
    return math.sqrt((h / H) * (w / W))


def cs_label(s: BoxSample) -> float:
    """Category-size soft label: size factor for positives, 0 for negatives."""
    if s.y == 0:
        return 0.0
    return size_factor(s.h, s.w, s.H, s.W)


def cs_pred(s: BoxSample) -> float:
    """Size factor of the predicted box."""
    return size_factor(s.h_hat, s.w_hat, s.H, s.W)


def positive_weight(cs_hat: float, cs: float, cfg: BoostConfig) -> float:
    """Weight on -log(p) for a positive: alpha (1 - cs_hat^beta)^gamma cs^beta."""
    if not (0.0 <= cs_hat <= 1.0 and 0.0 <= cs <= 1.0):
        raise DomainError(f"size factors must lie in [0, 1], got {cs_hat}, {cs}")
    return _positive_weight(cs_hat, cs**cfg.beta, cfg)


def _positive_weight(cs_hat, cs_beta, cfg: BoostConfig):
    """alpha (1 - cs_hat^beta)^gamma cs^beta, with cs^beta given as cs_beta."""
    return cfg.alpha * (1.0 - cs_hat**cfg.beta) ** cfg.gamma * cs_beta


def _cls_loss_and_grad(p, pos, cs_hat, cs_beta, cfg: BoostConfig):
    """Loss, its gradient dL/dp and the weight of each positive term, from
    one pass over the probability array p; pos is the boolean positive mask.

    The loss is -sum(terms) / N. A positive's term is weight * log(p), with
    weight alpha (1 - cs_hat^beta)^gamma cs^beta for the boost loss (cs_hat
    holds the predicted size factors, cs_beta holds cs^beta; both go unused
    for negatives) and alpha (1 - p)^gamma for the focal loss, chosen by
    passing cs_hat=None. A negative's term is (1 - alpha) p^gamma log(1 - p).
    p is clamped to [P_CLAMP, 1 - P_CLAMP] first. Reordering the operands of
    any expression changes the toy trainer's last bits, so tests compare the
    results bit for bit with a reference copy of the per-quantity formulas."""
    a, g = cfg.alpha, cfg.gamma
    p = np.clip(p, P_CLAMP, 1.0 - P_CLAMP)
    one_m = 1.0 - p
    log_p = np.log(p)
    log1m = np.log(one_m)
    pg = p**g
    if cs_hat is not None:
        weight = _positive_weight(cs_hat, cs_beta, cfg)
        pos_grad = -weight / p
    else:
        one_m_g = one_m**g
        weight = a * one_m_g
        pos_grad = -a * (-g * one_m ** (g - 1.0) * log_p + one_m_g / p)
    terms = np.where(pos, weight * log_p, (1.0 - a) * pg * log1m)
    grad = np.where(pos, pos_grad, -(1.0 - a) * (g * p ** (g - 1.0) * log1m - pg / one_m))
    return -float(terms.sum()) / cfg.N, grad / cfg.N, weight


def _columns(samples: list[BoxSample]):
    """p and the positive mask of a non-empty sample list."""
    if not samples:
        raise DomainError("empty sample list")
    return np.array([s.p for s in samples]), np.array([s.y == 1 for s in samples])


def _boost(samples: list[BoxSample], cfg: BoostConfig):
    p, pos = _columns(samples)
    # size factors of positives only; negatives' boxes are never checked
    cs_hat = np.array([cs_pred(s) if s.y == 1 else 0.0 for s in samples])
    cs = np.array([cs_label(s) for s in samples])
    return _cls_loss_and_grad(p, pos, cs_hat, cs**cfg.beta, cfg)


def _focal(samples: list[BoxSample], alpha: float, gamma: float, n: int | None):
    p, pos = _columns(samples)
    if n is None:
        n = max(1, int(pos.sum()))
    return _cls_loss_and_grad(p, pos, None, None, BoostConfig(alpha=alpha, gamma=gamma, N=n))


def boost_loss(samples: list[BoxSample], cfg: BoostConfig) -> float:
    """Size-reweighted loss, reduced by 1/cfg.N.

    Positives contribute -alpha (1 - cs_hat^beta)^gamma cs^beta log(p);
    negatives contribute -(1 - alpha) p^gamma log(1 - p).
    """
    return _boost(samples, cfg)[0]


def boost_loss_grad(samples: list[BoxSample], cfg: BoostConfig) -> list[float]:
    """dL/dp per sample; size factors are constants w.r.t. p (no gradient
    flows into box extents)."""
    return _boost(samples, cfg)[1].tolist()


def focal_loss(samples: list[BoxSample], alpha: float, gamma: float, n: int | None = None) -> float:
    """Alpha-balanced focal baseline with the identical negative term.

    The reduction count defaults to the number of positives (at least 1);
    pass n explicitly to match a BoostConfig.N. alpha, gamma and n are
    checked as BoostConfig checks them.
    """
    return _focal(samples, alpha, gamma, n)[0]


def focal_loss_grad(
    samples: list[BoxSample], alpha: float, gamma: float, n: int | None = None
) -> list[float]:
    """dL/dp per sample for the focal baseline."""
    return _focal(samples, alpha, gamma, n)[1].tolist()


def round4(x: float) -> float:
    """Round half away from zero to 4 decimal places."""
    return float(Decimal(repr(x)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


@dataclass
class WeightTable:
    """Per-size positive-term weight factors plus pairwise relative distances."""

    gamma: float
    betas: list[float]
    sizes: list[tuple[float, float]]
    cs_hats: list[float] = field(default_factory=list)
    weights: list[list[float]] = field(default_factory=list)   # [size][beta]
    rd: list[list[float]] = field(default_factory=list)        # [pair][beta]
    amplification: list[list[float | None]] = field(default_factory=list)

    def csv_lines(self) -> list[str]:
        head = "size,cs_hat," + ",".join(f"w_beta_{b:g}" for b in self.betas)
        lines = [head]
        for size, cs, row in zip(self.sizes, self.cs_hats, self.weights):
            cells = ",".join(f"{v:.4f}" for v in row)
            lines.append(f"{_fmt_size(size)},{cs:.4f},{cells}")
        for i, (rd_row, amp_row) in enumerate(zip(self.rd, self.amplification)):
            cells = ",".join(
                f"{v:.4f}" if amp is None else f"{v:.4f} ({amp:.1f}x)"
                for v, amp in zip(rd_row, amp_row)
            )
            lines.append(
                f"RD {_fmt_size(self.sizes[i])} vs {_fmt_size(self.sizes[i + 1])},,{cells}"
            )
        return lines


def _fmt_size(size: tuple[float, float]) -> str:
    return f"{size[0]:g}x{size[1]:g}"


def weight_table(
    object_sizes: list[tuple[float, float]],
    H: float,
    W: float,
    gamma: float,
    betas: list[float],
) -> WeightTable:
    """Weight factors (1 - cs_hat^beta)^gamma per size and beta, with the
    relative distance |w_a - w_b| / min(w_a, w_b) between consecutive sizes.

    All displayed quantities are rounded half away from zero to 4 decimals,
    and each stage consumes the previous stage's rounded values. When 1.0 is
    among the betas, each relative distance also carries its amplification
    ratio over the beta = 1.0 column.
    """
    BoostConfig(gamma=gamma)  # the loss's domain checks, gamma's when betas is empty
    # (1 - cs_hat^beta)^gamma is the positive weight at alpha = 1 and cs^beta = 1
    cfgs = [BoostConfig(alpha=1.0, beta=b, gamma=gamma) for b in betas]
    table = WeightTable(gamma=gamma, betas=list(betas), sizes=[tuple(s) for s in object_sizes])
    for h, w in table.sizes:
        cs = round4(size_factor(h, w, H, W))
        table.cs_hats.append(cs)
        table.weights.append([round4(_positive_weight(cs, 1.0, c)) for c in cfgs])
    unit = betas.index(1.0) if 1.0 in betas else None
    for i, (row_a, row_b) in enumerate(zip(table.weights, table.weights[1:])):
        for b, wa, wb in zip(betas, row_a, row_b):
            if min(wa, wb) == 0:
                raise DomainError(
                    f"relative distance of sizes {_fmt_size(table.sizes[i])} and "
                    f"{_fmt_size(table.sizes[i + 1])} at beta={b:g} is undefined: "
                    "a weight rounds to 0"
                )
        rd_row = [round4(abs(wa - wb) / min(wa, wb)) for wa, wb in zip(row_a, row_b)]
        table.rd.append(rd_row)
        if unit is None or rd_row[unit] == 0:
            table.amplification.append([None] * len(betas))
        else:
            table.amplification.append(
                [None if i == unit else rd / rd_row[unit] for i, rd in enumerate(rd_row)]
            )
    return table
