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
from itertools import chain
from typing import NoReturn

import numpy as np

from .boost import BoostConfig, _cls_loss_and_grad
from .errors import DimensionError, DomainError, ParseError, TrainingError, _whole
from .numeric import _empty, _sample_sum_product, _sigmoid_into, make_rng, tensor

FEATURE_DIM = 16
HIDDEN_DIM = 32
IMAGE_SIDE = 1024.0
SIDE_RANGE = (2.0, 512.0)

BUCKET_NAMES = ("very_tiny", "tiny", "small", "medium", "large")
BUCKET_EDGES = (2.0, 8.0, 16.0, 32.0, 96.0)  # on sqrt(h * w); last bucket open

DEFAULT_STAT_EDGES = (0.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True, eq=False)
class SynthData:
    """The synthetic dataset as columns, one row per sample."""

    features: np.ndarray  # float64 [n, FEATURE_DIM]
    y: np.ndarray         # int64 [n]: 1 positive, 0 negative
    sides: np.ndarray     # float64 [n, 2]: h, w in pixels
    bucket: np.ndarray    # int64 [n]: indices into BUCKET_NAMES

    def __post_init__(self):
        n = self.y.size
        shapes = {
            "features": (self.features.shape, (n, FEATURE_DIM)),
            "y": (self.y.shape, (n,)),
            "sides": (self.sides.shape, (n, 2)),
            "bucket": (self.bucket.shape, (n,)),
        }
        for name, (got, want) in shapes.items():
            if got != want:
                raise DimensionError(f"SynthData.{name} has shape {got}, expected {want}")

    def __len__(self) -> int:
        return len(self.y)


@dataclass(frozen=True, eq=False)
class Detections:
    """COCO results as columns, one row per entry in file order."""

    image_id: np.ndarray     # int64 [n]
    category_id: np.ndarray  # int64 [n]
    bbox: np.ndarray         # float64 [n, 4]: x, y, w, h
    score: np.ndarray        # float64 [n]


@dataclass
class RunConfig:
    loss: str = "boost"
    alpha: float = BoostConfig.alpha
    beta: float = BoostConfig.beta
    gamma: float = BoostConfig.gamma
    epochs: int = 200
    lr: float = 0.5
    seed: int = 0
    n: int = 5000

    def validate(self) -> None:
        if self.loss not in ("boost", "focal"):
            raise DomainError(f"loss must be 'boost' or 'focal', got {self.loss!r}")
        self.epochs = _whole("epochs", self.epochs, 0)  # train_toy's range() takes an int
        if not self.lr > 0:
            raise DomainError(f"learning rate must be positive, got {self.lr}")
        _whole("n", self.n, 1)
        _whole("seed", self.seed, 0)
        BoostConfig(alpha=self.alpha, beta=self.beta, gamma=self.gamma)


def synth_dataset(seed: int, n: int) -> SynthData:
    """Deterministic synthetic dataset of n samples.

    Box sides are log-uniform in [2, 512] inside a virtual 1024 x 1024 image,
    labels are fair coin flips, and feature noise scales with
    1 / size_factor^0.1 so small objects are noisier.
    """
    n = _whole("n", n, 1)
    rng = make_rng(seed)
    lo, hi = np.log(SIDE_RANGE[0]), np.log(SIDE_RANGE[1])
    sides = np.exp(rng.uniform(lo, hi, size=(n, 2)))
    y = (rng.uniform(size=n) < 0.5).astype(np.int64)
    side = np.sqrt(sides[:, 0] * sides[:, 1])
    sf = side / IMAGE_SIDE
    sigma = 0.25 * sf**-0.1
    # fixed embedding of (h, w) / image side into feature space, shared by all
    # seeds; drawn here rather than at import, so importing this module loads
    # no numpy.random
    embed = make_rng(0x51ED).uniform(-2.0, 2.0, size=(FEATURE_DIM, 2))
    base = (sides / IMAGE_SIDE) @ embed.T
    feats = base + rng.standard_normal((n, FEATURE_DIM)) * sigma[:, None]
    neg = np.flatnonzero(y == 0)
    if neg.size:
        feats[neg] = rng.permuted(feats[neg], axis=1)
    # every sample's bucket in one pass: the number of BUCKET_EDGES[1:] at or
    # below sqrt(h * w), as the tests' per-sample size_bucket oracle counts
    # it with math.sqrt, which rounds as np.sqrt does
    bucket = np.searchsorted(BUCKET_EDGES[1:], side, side="right").astype(np.int64, copy=False)
    return SynthData(features=feats, y=y, sides=sides, bucket=bucket)


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
    predicts extents on the log side scale. Samples lie on the last axis of
    every array, and the two heads are one [3, HIDDEN_DIM] weight: row 0
    gives the class logit, rows 1-2 the logits of the extents h and w."""

    def __init__(self, rng: np.random.Generator):
        self.w1 = rng.uniform(-1, 1, (HIDDEN_DIM, FEATURE_DIM)) / math.sqrt(FEATURE_DIM)
        self.b1 = np.zeros((HIDDEN_DIM, 1))
        w2 = rng.uniform(-1, 1, HIDDEN_DIM) / math.sqrt(HIDDEN_DIM)
        wb = rng.uniform(-1, 1, (2, HIDDEN_DIM)) / math.sqrt(HIDDEN_DIM)
        self.w_head = np.vstack((w2, wb))
        self.b_head = np.zeros((3, 1))

    def forward(self, x, hidden, out):
        """The heads' outputs for x, [FEATURE_DIM, n], written into out,
        [3, n]: class probabilities in row 0 and log-scale extents in (0, 1)
        in rows 1-2. The hidden layer is written into hidden, a
        [HIDDEN_DIM, n] buffer."""
        np.matmul(self.w1, x, out=hidden)
        hidden += self.b1
        np.tanh(hidden, out=hidden)
        np.matmul(self.w_head, hidden, out=out)
        out += self.b_head
        return _sigmoid_into(out, out)

    def step(self, x, hidden, d_logits, lr, d_pre):
        """One gradient step from d_logits, [3, n], the loss gradient with
        respect to the heads' logits. d_pre is a [HIDDEN_DIM, n] buffer the
        step overwrites; hidden is used up: it is left holding 1 - hidden^2."""
        np.matmul(self.w_head.T, d_logits, out=d_pre)
        self.w_head -= lr * _sample_sum_product(d_logits, hidden)
        self.b_head -= lr * d_logits.sum(axis=1, keepdims=True)
        np.multiply(hidden, hidden, out=hidden)
        d_pre *= np.subtract(1.0, hidden, out=hidden)
        self.w1 -= lr * _sample_sum_product(d_pre, x)
        self.b1 -= lr * d_pre.sum(axis=1, keepdims=True)


def train_toy(data: SynthData, cfg: RunConfig) -> TrainMetrics:
    """Full-batch gradient descent on the toy model; classification gradient
    comes from the configured loss, the box head from squared error on the
    log-scale extents of positives. cfg.epochs == 0 evaluates the freshly
    initialized model. data is only read and must hold cfg.n samples, the
    count the metrics header reports."""
    cfg.validate()
    n = len(data)
    if n != cfg.n:
        raise DomainError(f"dataset has {n} samples, but the config says n={cfg.n}")
    x = _empty((FEATURE_DIM, n))
    np.copyto(x, data.features.T)
    gt = data.sides
    pos = data.y == 1
    n_pos = max(1, int(pos.sum()))
    loss_cfg = BoostConfig(alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma, N=n_pos)
    # flat indices of the positives' extents in a [3, n] array of head
    # outputs, (h, w) for each positive in sample order: take and put through
    # them cost a tenth of a boolean mask on axis 1
    box_at = (np.flatnonzero(pos)[:, None] + (n, 2 * n)).ravel()
    # run-invariant targets: the encoded sides of positives in box_at's
    # order, and cs^beta
    gt_t_pos = _encode_sides(gt[pos]).ravel()
    cs = np.where(pos, np.sqrt(gt[:, 0] * gt[:, 1]) / IMAGE_SIDE, 0.0)
    cs_beta = cs**cfg.beta

    model = _ToyModel(make_rng(cfg.seed))
    # the epoch's arrays, made once: hidden is written by each forward and
    # used up by the step after it
    hidden, d_pre = _empty((HIDDEN_DIM, n)), _empty((HIDDEN_DIM, n))
    heads, d_logits = np.empty((3, n)), np.empty((3, n))
    d_heads = np.zeros((3, n))  # loss gradient per head output; negatives' box rows stay 0

    def evaluate(heads):
        """Loss of one forward's outputs, dL/dp, the positive weights and the
        box residuals t_hat - gt_t of positives."""
        cs_hat = None
        if cfg.loss == "boost":
            sides = _decode_sides(heads[1:])
            cs_hat = np.sqrt(sides[0] * sides[1]) / IMAGE_SIDE
        cls, d_p, weight = _cls_loss_and_grad(heads[0], pos, cs_hat, cs_beta, loss_cfg)
        resid = heads.take(box_at) - gt_t_pos
        return cls + float((resid**2).sum()) / n_pos, d_p, weight, resid

    # non-finite intermediates are expected on the way to the loss guard
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        model.forward(x, hidden, heads)
        loss, d_p, weight, resid = evaluate(heads)
        if not math.isfinite(loss):
            raise TrainingError("non-finite loss at epoch 0", epoch=0)
        for epoch in range(cfg.epochs):
            # d * s * (1 - s) for each head output s and its loss gradient d
            d_heads[0] = d_p
            d_heads.put(box_at, 2.0 * resid / n_pos)
            np.multiply(d_heads, heads, out=d_logits)
            d_logits *= np.subtract(1.0, heads, out=heads)

            model.step(x, hidden, d_logits, cfg.lr, d_pre)
            # this forward's loss gradient feeds the next epoch's step
            model.forward(x, hidden, heads)
            loss, d_p, weight, resid = evaluate(heads)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}", epoch=epoch)

    return _metrics(data.bucket, pos, heads[0], weight, cfg, loss)


def _metrics(bucket, pos, p, weight, cfg, final_loss) -> TrainMetrics:
    """Per-bucket metrics from the final model's class probabilities p and the
    weight of each sample's positive term, for samples in buckets bucket
    (indices into BUCKET_NAMES) with positives where pos is true."""
    k = len(BUCKET_NAMES)
    # bincount adds in input order, as a running per-bucket sum would
    counts = np.bincount(bucket, minlength=k).tolist()
    hits = np.bincount(bucket[pos & (p >= 0.5)], minlength=k).tolist()
    wcnt = np.bincount(bucket[pos], minlength=k).tolist()
    wsum = np.bincount(bucket[pos], weights=weight[pos], minlength=k).tolist()
    def per_positive(totals):
        return {k: t / c if c else float("nan") for k, t, c in zip(BUCKET_NAMES, totals, wcnt)}

    return TrainMetrics(
        cfg=cfg, final_loss=final_loss, bucket_counts=dict(zip(BUCKET_NAMES, counts)),
        bucket_recall=per_positive(hits), bucket_mean_weight=per_positive(wsum),
    )


_INT64 = range(-(2**63), 2**63)
# float() takes these, but a COCO number is a JSON number
_NOT_NUMBERS = frozenset((str, bool))
_KEYS = ("image_id", "category_id", "bbox", "score")


def ingest_coco_results(path: str) -> Detections:
    """Parse a COCO results JSON array into columns; malformed entries raise
    ParseError carrying the index of the first malformed entry. Each check
    is one whole-column test. Values are not coerced: a bbox value or score
    that is a string or a boolean is malformed, and so is an id that is not a
    JSON integer or lies outside the int64 range."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ParseError("JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            # RFC 8259: JSON exchanged between systems is UTF-8
            raise ParseError(f"not UTF-8 text: {exc}") from None
    if not isinstance(raw, list):
        raise ParseError("top-level value must be a JSON array")
    return _columns(raw)


def _float_error(bbox, score) -> str | None:
    """The message of the first bbox value or score that float() rejects."""
    try:
        tuple(map(float, bbox)), float(score)
    except (TypeError, OverflowError) as exc:
        return f"non-numeric field: {exc}"


def _columns(raw: list) -> Detections:
    """The entries of raw as columns, or the ParseError of its first
    malformed entry. The checks run in the order of one entry's checks, each
    a whole-column test; only a failed one looks for the entry to report."""

    def reject(flags, message) -> NoReturn:
        """Raise message(i) for the first entry i that flags marks, unless an
        entry before it fails a later check (at most ten checks deep)."""
        i = next(i for i, bad in enumerate(flags) if bad)
        if i:
            _columns(raw[:i])
        raise ParseError(message(i), index=i) from None

    if not set(map(type, raw)) <= {dict}:
        reject((type(e) is not dict for e in raw), lambda i: "entry is not an object")
    try:
        image_ids = [e["image_id"] for e in raw]
        category_ids = [e["category_id"] for e in raw]
        bboxes = [e["bbox"] for e in raw]
        scores = [e["score"] for e in raw]
    except KeyError:
        missing = [next((k for k in _KEYS if k not in e), None) for e in raw]
        reject(missing, lambda i: f"missing key {missing[i]!r}")
    if not (set(map(type, bboxes)) <= {list} and set(map(len, bboxes)) <= {4}):
        reject((type(b) is not list or len(b) != 4 for b in bboxes),
               lambda i: f"bbox must be a 4-element array, got {bboxes[i]!r}")
    values = list(chain.from_iterable(bboxes))
    value_types = set(map(type, values)).union(map(type, scores))
    if not _NOT_NUMBERS.isdisjoint(value_types):
        reject((not _NOT_NUMBERS.isdisjoint(map(type, [s, *b])) for b, s in zip(bboxes, scores)),
               lambda i: f"non-numeric field: bbox values and score must be JSON numbers, "
                         f"got bbox={bboxes[i]!r}, score={scores[i]!r}")
    if not set(map(type, image_ids)).union(map(type, category_ids)) <= {int}:
        reject((type(a) is not int or type(c) is not int for a, c in zip(image_ids, category_ids)),
               lambda i: f"id is not a JSON integer (numeric values are not coerced): "
                         f"image_id={image_ids[i]!r}, category_id={category_ids[i]!r}")
    try:
        if not value_types <= {int, float}:  # np.array would read None as NaN
            raise TypeError
        bbox = np.array(values, dtype=np.float64).reshape(-1, 4)
        score = np.array(scores, dtype=np.float64)
    except (TypeError, OverflowError):  # OverflowError: an integer too large for a float
        reject(map(_float_error, bboxes, scores), lambda i: _float_error(bboxes[i], scores[i]))
    finite = np.isfinite(bbox)
    if not finite.all():
        reject(~finite.all(axis=1), lambda i: f"non-finite bbox value in {tuple(bbox[i].tolist())}")
    nonneg = bbox[:, 2:] >= 0.0
    if not nonneg.all():
        reject(~nonneg.all(axis=1), lambda i: f"negative box extent in {tuple(bbox[i].tolist())}")
    score_ok = (score >= 0.0) & (score <= 1.0)
    if not score_ok.all():
        reject(~score_ok, lambda i: f"score {score[i].tolist()} outside [0, 1]")
    try:
        image_id = np.array(image_ids, dtype=np.int64)
        category_id = np.array(category_ids, dtype=np.int64)
    except OverflowError:
        reject((a not in _INT64 or c not in _INT64 for a, c in zip(image_ids, category_ids)),
               lambda i: f"id outside the int64 range: "
                         f"image_id={image_ids[i]}, category_id={category_ids[i]}")
    return Detections(image_id=image_id, category_id=category_id, bbox=bbox, score=score)


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
    dets: Detections,
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
    if not all(map(math.isfinite, edges)):
        raise DomainError(f"bucket edges must be finite, got {edges}")
    labels = [f"[{a:g},{b:g})" for a, b in zip(edges, edges[1:])] + [f"[{edges[-1]:g},inf)"]
    score = dets.score
    # w * h of extents near 1e308 overflows to inf, the open top bucket's
    # size; only the warning is silenced
    with np.errstate(over="ignore"):
        size = np.sqrt(dets.bbox[:, 2] * dets.bbox[:, 3])
    keep = (score >= threshold) & (size >= edges[0])
    idx = np.searchsorted(edges[1:], size[keep], side="right")
    # bincount adds in input order, as a running per-bucket sum would
    counts = np.bincount(idx, minlength=len(labels)).tolist()
    sums = np.bincount(idx, weights=score[keep], minlength=len(labels)).tolist()
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
        h_o, w_o = _whole("H_o", h_o, 1, DimensionError), _whole("W_o", w_o, 1, DimensionError)
        return cls(np.eye(w_o), np.zeros(w_o), np.eye(h_o), np.zeros(h_o))

    @classmethod
    def random(cls, h_o: int, w_o: int, rng: np.random.Generator) -> "FixedSizeMlpWeights":
        h_o, w_o = _whole("H_o", h_o, 1, DimensionError), _whole("W_o", w_o, 1, DimensionError)
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
