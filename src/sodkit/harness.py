"""Desk-scale verification harness: a synthetic size-stratified dataset, a
toy two-head perceptron trained with either the boost or the focal loss,
COCO-results ingestion, and score-versus-size statistics.

The synthetic generator encodes the premise that small objects are harder:
features are a fixed linear embedding of the normalized box extents plus
Gaussian noise whose scale grows as the size factor shrinks, and negative
samples get their feature vector shuffled. Everything is deterministic under
the configured seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .boost import BoxSample
from .errors import DimensionError, DomainError, ParseError, TrainingError
from .numeric import make_rng, sigmoid, tensor

FEATURE_DIM = 16
HIDDEN_DIM = 32
IMAGE_SIDE = 1024.0
SIDE_RANGE = (2.0, 512.0)

BUCKET_NAMES = ("very_tiny", "tiny", "small", "medium", "large")
BUCKET_EDGES = (2.0, 8.0, 16.0, 32.0, 96.0)  # on sqrt(h * w); last bucket open

DEFAULT_STAT_EDGES = (0.0, 16.0, 32.0, 64.0, 128.0, 256.0)

# fixed embedding of (h, w) / image side into feature space, shared by all seeds
_EMBED = make_rng(0x51ED).uniform(-2.0, 2.0, size=(FEATURE_DIM, 2))


@dataclass(frozen=True)
class SynthSample:
    features: np.ndarray
    y: int
    h: float
    w: float
    size_bucket: str


@dataclass(frozen=True)
class Detection:
    image_id: int
    category_id: int
    bbox: tuple[float, float, float, float]  # x, y, w, h
    score: float


@dataclass
class RunConfig:
    loss: str = "boost"
    alpha: float = 0.25
    beta: float = 1.0
    gamma: float = 2.0
    epochs: int = 200
    lr: float = 0.5
    seed: int = 0
    n: int = 5000
    out: str | None = None

    def validate(self) -> None:
        if self.loss not in ("boost", "focal"):
            raise DomainError(f"loss must be 'boost' or 'focal', got {self.loss!r}")
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        if not self.lr > 0:
            raise DomainError(f"learning rate must be positive, got {self.lr}")
        if self.n < 1:
            raise DomainError(f"dataset size must be >= 1, got {self.n}")


def size_bucket(h: float, w: float) -> str:
    side = math.sqrt(h * w)
    idx = int(np.searchsorted(BUCKET_EDGES[1:], side, side="right"))
    return BUCKET_NAMES[idx]


def synth_dataset(seed: int, n: int) -> list[SynthSample]:
    """Deterministic synthetic dataset of n samples.

    Box sides are log-uniform in [2, 512] inside a virtual 1024 x 1024 image,
    labels are fair coin flips, and feature noise scales with
    1 / size_factor^0.1 so small objects are noisier.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    lo, hi = np.log(SIDE_RANGE[0]), np.log(SIDE_RANGE[1])
    sides = np.exp(rng.uniform(lo, hi, size=(n, 2)))
    y = (rng.uniform(size=n) < 0.5).astype(int)
    sf = np.sqrt(sides[:, 0] * sides[:, 1]) / IMAGE_SIDE
    sigma = 0.25 * sf**-0.1
    base = (sides / IMAGE_SIDE) @ _EMBED.T
    feats = base + rng.standard_normal((n, FEATURE_DIM)) * sigma[:, None]
    neg = np.flatnonzero(y == 0)
    if neg.size:
        feats[neg] = rng.permuted(feats[neg], axis=1)
    return [
        SynthSample(
            features=feats[i],
            y=int(y[i]),
            h=float(sides[i, 0]),
            w=float(sides[i, 1]),
            size_bucket=size_bucket(sides[i, 0], sides[i, 1]),
        )
        for i in range(n)
    ]


@dataclass
class TrainMetrics:
    cfg: RunConfig
    final_loss: float
    bucket_counts: dict[str, int]
    bucket_recall: dict[str, float]          # nan when the bucket has no positives
    bucket_mean_weight: dict[str, float]     # mean positive-term weight, nan when empty

    def csv_lines(self) -> list[str]:
        c = self.cfg
        head = (
            f"# boost-train loss={c.loss} alpha={c.alpha:.6f} beta={c.beta:.6f} "
            f"gamma={c.gamma:.6f} epochs={c.epochs} lr={c.lr:.6f} seed={c.seed} "
            f"n={c.n} final_loss={self.final_loss:.6f}"
        )
        lines = [head, "bucket,count,recall,mean_positive_weight"]
        for name in BUCKET_NAMES:
            lines.append(
                f"{name},{self.bucket_counts[name]},"
                f"{_fmt(self.bucket_recall[name])},{_fmt(self.bucket_mean_weight[name])}"
            )
        return lines


def _fmt(v: float) -> str:
    return "nan" if math.isnan(v) else f"{v:.6f}"


_LOG_SPAN = math.log(SIDE_RANGE[1] / SIDE_RANGE[0])


def _encode_sides(sides):
    """Box extents in pixels -> position in the log side range, in [0, 1]."""
    return np.log(np.asarray(sides) / SIDE_RANGE[0]) / _LOG_SPAN


def _decode_sides(t):
    """Inverse of _encode_sides; output lies in (2, 512]."""
    return SIDE_RANGE[0] * np.exp(np.asarray(t) * _LOG_SPAN)


class _ToyModel:
    """Two-layer perceptron with a class-probability head and a box head that
    predicts extents on the log side scale."""

    def __init__(self, rng: np.random.Generator):
        self.w1 = rng.uniform(-1, 1, (HIDDEN_DIM, FEATURE_DIM)) / math.sqrt(FEATURE_DIM)
        self.b1 = np.zeros(HIDDEN_DIM)
        self.w2 = rng.uniform(-1, 1, HIDDEN_DIM) / math.sqrt(HIDDEN_DIM)
        self.b2 = 0.0
        self.wb = rng.uniform(-1, 1, (2, HIDDEN_DIM)) / math.sqrt(HIDDEN_DIM)
        self.bb = np.zeros(2)

    def forward(self, x):
        hidden = np.tanh(x @ self.w1.T + self.b1)
        p = sigmoid(hidden @ self.w2 + self.b2)
        t_hat = sigmoid(hidden @ self.wb.T + self.bb)  # log-scale extents in (0, 1)
        return hidden, p, t_hat

    def step(self, x, hidden, d_z, d_box_raw, lr):
        d_hidden = np.outer(d_z, self.w2) + d_box_raw @ self.wb
        d_pre = d_hidden * (1.0 - hidden * hidden)
        self.wb -= lr * d_box_raw.T @ hidden
        self.bb -= lr * d_box_raw.sum(axis=0)
        self.w2 -= lr * hidden.T @ d_z
        self.b2 -= lr * d_z.sum()
        self.w1 -= lr * d_pre.T @ x
        self.b1 -= lr * d_pre.sum(axis=0)


# Vectorized twins of the scalar loss API, used only inside the trainer for
# throughput; tests pin them to the scalar reference implementations.

def _clamp_vec(p):
    return np.clip(p, 1e-12, 1.0 - 1e-12)


def _pos_weight_vec(cs_hat, cs, alpha, beta, gamma):
    return alpha * (1.0 - cs_hat**beta) ** gamma * cs**beta


def _boost_terms_vec(p, y, cs_hat, cs, alpha, beta, gamma):
    p = _clamp_vec(p)
    pos = _pos_weight_vec(cs_hat, cs, alpha, beta, gamma) * np.log(p)
    neg = (1.0 - alpha) * p**gamma * np.log(1.0 - p)
    return np.where(y == 1, pos, neg)


def _boost_grad_vec(p, y, cs_hat, cs, alpha, beta, gamma, n):
    p = _clamp_vec(p)
    pos = -_pos_weight_vec(cs_hat, cs, alpha, beta, gamma) / p
    neg = -(1.0 - alpha) * (
        gamma * p ** (gamma - 1.0) * np.log(1.0 - p) - p**gamma / (1.0 - p)
    )
    return np.where(y == 1, pos, neg) / n


def _focal_terms_vec(p, y, alpha, gamma):
    p = _clamp_vec(p)
    pos = alpha * (1.0 - p) ** gamma * np.log(p)
    neg = (1.0 - alpha) * p**gamma * np.log(1.0 - p)
    return np.where(y == 1, pos, neg)


def _focal_grad_vec(p, y, alpha, gamma, n):
    p = _clamp_vec(p)
    pos = -alpha * (-gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p) + (1.0 - p) ** gamma / p)
    neg = -(1.0 - alpha) * (
        gamma * p ** (gamma - 1.0) * np.log(1.0 - p) - p**gamma / (1.0 - p)
    )
    return np.where(y == 1, pos, neg) / n


def _cls_loss_vec(p, y, cs_hat, cs, cfg: RunConfig, n: int) -> float:
    if cfg.loss == "boost":
        terms = _boost_terms_vec(p, y, cs_hat, cs, cfg.alpha, cfg.beta, cfg.gamma)
    else:
        terms = _focal_terms_vec(p, y, cfg.alpha, cfg.gamma)
    return -float(terms.sum()) / n


def train_toy(data: list[SynthSample], cfg: RunConfig) -> TrainMetrics:
    """Full-batch gradient descent on the toy model; classification gradient
    comes from the configured loss, the box head from squared error on the
    log-scale extents of positives. cfg.epochs == 0 evaluates the freshly
    initialized model."""
    cfg.validate()
    x = np.stack([s.features for s in data])
    y = np.array([s.y for s in data])
    gt = np.array([[s.h, s.w] for s in data])
    gt_t = _encode_sides(gt)
    cs = np.where(y == 1, np.sqrt(gt[:, 0] * gt[:, 1]) / IMAGE_SIDE, 0.0)
    pos = y == 1
    n_pos = max(1, int(pos.sum()))

    model = _ToyModel(make_rng(cfg.seed))

    def total_loss(p, t_hat):
        sides = _decode_sides(t_hat)
        cs_hat = np.sqrt(sides[:, 0] * sides[:, 1]) / IMAGE_SIDE
        cls = _cls_loss_vec(p, y, cs_hat, cs, cfg, n_pos)
        box = float(((t_hat[pos] - gt_t[pos]) ** 2).sum()) / n_pos
        return cls + box

    # non-finite intermediates are expected on the way to the loss guard
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hidden, p, t_hat = model.forward(x)
        loss = total_loss(p, t_hat)
        if not math.isfinite(loss):
            raise TrainingError("non-finite loss at epoch 0", epoch=0)
        for epoch in range(cfg.epochs):
            sides = _decode_sides(t_hat)
            cs_hat = np.sqrt(sides[:, 0] * sides[:, 1]) / IMAGE_SIDE
            if cfg.loss == "boost":
                d_p = _boost_grad_vec(p, y, cs_hat, cs, cfg.alpha, cfg.beta, cfg.gamma, n_pos)
            else:
                d_p = _focal_grad_vec(p, y, cfg.alpha, cfg.gamma, n_pos)
            d_z = d_p * p * (1.0 - p)

            d_t = np.zeros_like(t_hat)
            d_t[pos] = 2.0 * (t_hat[pos] - gt_t[pos]) / n_pos
            d_box_raw = d_t * t_hat * (1.0 - t_hat)

            model.step(x, hidden, d_z, d_box_raw, cfg.lr)
            # this forward also feeds the next epoch's step
            hidden, p, t_hat = model.forward(x)
            loss = total_loss(p, t_hat)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}", epoch=epoch)

    return _metrics(data, p, t_hat, cs, cfg, loss)


def _metrics(data, p, t_hat, cs, cfg, final_loss) -> TrainMetrics:
    """Per-bucket metrics from the final model's outputs p and t_hat."""
    sides = _decode_sides(t_hat)
    cs_hat = np.sqrt(sides[:, 0] * sides[:, 1]) / IMAGE_SIDE
    if cfg.loss == "boost":
        weights = _pos_weight_vec(cs_hat, cs, cfg.alpha, cfg.beta, cfg.gamma)
    else:
        weights = cfg.alpha * (1.0 - _clamp_vec(p)) ** cfg.gamma
    counts = {name: 0 for name in BUCKET_NAMES}
    hits = {name: 0 for name in BUCKET_NAMES}
    wsum = {name: 0.0 for name in BUCKET_NAMES}
    wcnt = {name: 0 for name in BUCKET_NAMES}
    for i, s in enumerate(data):
        counts[s.size_bucket] += 1
        if s.y != 1:
            continue
        if p[i] >= 0.5:
            hits[s.size_bucket] += 1
        wsum[s.size_bucket] += float(weights[i])
        wcnt[s.size_bucket] += 1
    recall = {
        name: (hits[name] / wcnt[name]) if wcnt[name] else float("nan")
        for name in BUCKET_NAMES
    }
    mean_w = {
        name: (wsum[name] / wcnt[name]) if wcnt[name] else float("nan")
        for name in BUCKET_NAMES
    }
    return TrainMetrics(
        cfg=cfg, final_loss=final_loss,
        bucket_counts=counts, bucket_recall=recall, bucket_mean_weight=mean_w,
    )


def model_box_samples(data: list[SynthSample], cfg: RunConfig) -> list[BoxSample]:
    """Box samples from the initialized toy model, for cross-checking the
    vectorized training path against the scalar loss API."""
    x = np.stack([s.features for s in data])
    model = _ToyModel(make_rng(cfg.seed))
    _, p, t_hat = model.forward(x)
    sides = _decode_sides(t_hat)
    return [
        BoxSample(
            H=IMAGE_SIDE, W=IMAGE_SIDE, h=s.h, w=s.w, y=s.y,
            p=float(p[i]),
            h_hat=float(sides[i, 0]),
            w_hat=float(sides[i, 1]),
        )
        for i, s in enumerate(data)
    ]


def ingest_coco_results(path: str) -> list[Detection]:
    """Parse a COCO results JSON array; malformed entries raise ParseError
    carrying the entry index."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ParseError("top-level value must be a JSON array")
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ParseError("entry is not an object", index=i)
        for key in ("image_id", "category_id", "bbox", "score"):
            if key not in entry:
                raise ParseError(f"missing key {key!r}", index=i)
        bbox = entry["bbox"]
        if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
            raise ParseError(f"bbox must be a 4-element array, got {bbox!r}", index=i)
        try:
            bbox = tuple(float(v) for v in bbox)
            score = float(entry["score"])
            image_id = int(entry["image_id"])
            category_id = int(entry["category_id"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"non-numeric field: {exc}", index=i) from None
        if bbox[2] < 0 or bbox[3] < 0:
            raise ParseError(f"negative box extent in {bbox}", index=i)
        if not 0.0 <= score <= 1.0:
            raise ParseError(f"score {score} outside [0, 1]", index=i)
        out.append(Detection(image_id=image_id, category_id=category_id, bbox=bbox, score=score))
    return out


@dataclass
class ScoreStats:
    threshold: float
    edges: tuple[float, ...]
    labels: list[str]
    counts: list[int]
    means: list[float]  # nan for empty buckets

    def csv_lines(self) -> list[str]:
        edge_str = "|".join(f"{e:g}" for e in self.edges)
        lines = [
            f"# score-stats threshold={self.threshold:.6f} edges={edge_str}",
            "bucket,count,mean_score",
        ]
        for label, count, mean in zip(self.labels, self.counts, self.means):
            lines.append(f"{label},{count},{_fmt(mean)}")
        return lines


def score_stats(
    dets: list[Detection],
    threshold: float,
    bucket_edges: tuple[float, ...] = DEFAULT_STAT_EDGES,
) -> ScoreStats:
    """Mean detection score per size bucket, over detections with
    score >= threshold; size is sqrt(w * h) of the box."""
    if not 0.0 <= threshold <= 1.0:
        raise DomainError(f"threshold must lie in [0, 1], got {threshold}")
    edges = tuple(float(e) for e in bucket_edges)
    if len(edges) < 1 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise DomainError(f"bucket edges must be strictly increasing, got {edges}")
    labels = [f"[{a:g},{b:g})" for a, b in zip(edges, edges[1:])] + [f"[{edges[-1]:g},inf)"]
    sums = [0.0] * len(labels)
    counts = [0] * len(labels)
    for det in dets:
        if det.score < threshold:
            continue
        size = math.sqrt(det.bbox[2] * det.bbox[3])
        if size < edges[0]:
            continue
        idx = int(np.searchsorted(edges[1:], size, side="right"))
        sums[idx] += det.score
        counts[idx] += 1
    means = [s / c if c else float("nan") for s, c in zip(sums, counts)]
    return ScoreStats(threshold=threshold, edges=edges, labels=labels, counts=counts, means=means)


@dataclass
class FixedSizeMlpWeights:
    """Spatial MLP weights tied to one (H_o, W_o) patch size."""

    w_row: np.ndarray  # [W_o, W_o]
    b_row: np.ndarray  # [W_o]
    w_col: np.ndarray  # [H_o, H_o]
    b_col: np.ndarray  # [H_o]

    @classmethod
    def identity(cls, h_o: int, w_o: int) -> "FixedSizeMlpWeights":
        return cls(np.eye(w_o), np.zeros(w_o), np.eye(h_o), np.zeros(h_o))

    @classmethod
    def random(cls, h_o: int, w_o: int, rng: np.random.Generator) -> "FixedSizeMlpWeights":
        return cls(
            rng.uniform(-1, 1, (w_o, w_o)) / math.sqrt(w_o),
            rng.uniform(-1, 1, w_o),
            rng.uniform(-1, 1, (h_o, h_o)) / math.sqrt(h_o),
            rng.uniform(-1, 1, h_o),
        )


def fixed_size_mlp(x, weights: FixedSizeMlpWeights) -> np.ndarray:
    """Linear row MLP along width then column MLP along height; raises unless
    the spatial extents equal the weight extents. This rigidity is exactly
    what the adaptive tiling wrapper removes."""
    x = tensor(x)
    w_o = weights.w_row.shape[0]
    h_o = weights.w_col.shape[0]
    if x.ndim != 3 or x.shape[1] != h_o or x.shape[2] != w_o:
        raise DimensionError(
            f"fixed-size operator expects [C, {h_o}, {w_o}] input, got shape {x.shape}"
        )
    rows = x @ weights.w_row.T + weights.b_row
    return weights.w_col @ rows + weights.b_col[None, :, None]
