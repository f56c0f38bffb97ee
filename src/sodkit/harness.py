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

import contextlib
import gc
import json
import math
import os
import threading
from dataclasses import dataclass
from itertools import chain

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
        self.n = _whole("n", self.n, 1)
        self.seed = _whole("seed", self.seed, 0)
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
    every array, and the two heads are one weight: row 0 gives the class
    logit, rows 1-2 the logits of the extents h and w. Each layer's weight
    holds its bias as its last column, which meets a row of ones in the input."""

    def __init__(self, rng: np.random.Generator):
        w1 = rng.uniform(-1, 1, (HIDDEN_DIM, FEATURE_DIM)) / math.sqrt(FEATURE_DIM)
        w2 = rng.uniform(-1, 1, HIDDEN_DIM) / math.sqrt(HIDDEN_DIM)
        wb = rng.uniform(-1, 1, (2, HIDDEN_DIM)) / math.sqrt(HIDDEN_DIM)
        self.w1 = np.hstack((w1, np.zeros((HIDDEN_DIM, 1))))
        self.w_head = np.hstack((np.vstack((w2, wb)), np.zeros((3, 1))))

    def forward(self, x, hidden, out):
        """The heads' outputs for x, [FEATURE_DIM + 1, n], written into out,
        [3, n]: class probabilities in row 0 and log-scale extents in (0, 1)
        in rows 1-2. The hidden layer is written into hidden, a
        [HIDDEN_DIM + 1, n] buffer, above its last row; x's and hidden's last rows hold ones."""
        h = hidden[:HIDDEN_DIM]
        np.tanh(np.matmul(self.w1, x, out=h), out=h)
        np.matmul(self.w_head, hidden, out=out)
        return _sigmoid_into(out, out)

    def step(self, x, hidden, d_logits, lr, d_pre):
        """One gradient step from d_logits, [3, n], the loss gradient with
        respect to the heads' logits. d_pre is a [HIDDEN_DIM, n] buffer the
        step overwrites; hidden is used up: all but its row of ones is left
        holding 1 - hidden^2."""
        h = hidden[:HIDDEN_DIM]
        np.matmul(self.w_head[:, :HIDDEN_DIM].T, d_logits, out=d_pre)
        self.w_head -= lr * _sample_sum_product(d_logits, hidden)
        np.multiply(h, h, out=h)
        d_pre *= np.subtract(1.0, h, out=h)
        self.w1 -= lr * _sample_sum_product(d_pre, x)


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
    # the features over a row of ones; not pooled, which would keep its
    # buffer after the run, and peak RSS would rise by as much
    x = np.ones((FEATURE_DIM + 1, n))
    np.copyto(x[:FEATURE_DIM], data.features.T)
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
    # used up by the step after it, all but its row of ones
    hidden, d_pre = _empty((HIDDEN_DIM + 1, n)), _empty((HIDDEN_DIM, n))
    hidden[HIDDEN_DIM] = 1.0
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
_KEYS = ("image_id", "category_id", "bbox", "score")


def ingest_coco_results(path: str) -> Detections:
    """Parse a COCO results JSON array into columns; malformed entries raise
    ParseError carrying the index of the first malformed entry. Values are
    not coerced: a bbox value or score that is a string or a boolean is
    malformed, and so is an id that is not a JSON integer or lies outside
    the int64 range. A path that is not a str, bytes or os.PathLike raises
    DomainError; an int is not taken as a file descriptor.

    The cyclic garbage collector is paused for the call and left as it was
    found: the parse makes a dict and a bbox list per entry and no cycle, so
    a collection could free nothing, yet every 700 containers would start
    one that scans the entries built so far."""
    with _collector_paused():
        return _ingest(path)


# held while the collector's state is read and set, so that an ingest ending
# in another thread cannot resume the collector between the read and the set
_PAUSE_LOCK = threading.Lock()


def _after_fork_in_child() -> None:
    """A lock that another thread held at the fork would stay held in the
    child: make it anew."""
    global _PAUSE_LOCK
    _PAUSE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector; resume it on exit only if it was
    running on entry, so that a caller's own gc.disable() stands."""
    with _PAUSE_LOCK:
        enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            with _PAUSE_LOCK:
                gc.enable()


def _ingest(path) -> Detections:
    """ingest_coco_results' body. The parsed value lives only in this frame
    and is dropped before a ParseError is raised, so no entry is alive when
    the collector resumes: else the next allocation would start a collection
    that scans every entry."""
    try:
        path = os.fspath(path)
    except TypeError:
        raise DomainError(
            f"path must be a str, bytes or os.PathLike object, got {path!r}") from None
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
        del raw
        raise ParseError("top-level value must be a JSON array")
    dets = _columns(raw)
    if dets is None:
        i, message = next((i, m) for i, m in enumerate(map(_entry_error, raw)) if m)
        del raw
        raise ParseError(message, index=i)
    return dets


def _columns(raw: list) -> Detections | None:
    """The entries of raw as columns, or None if any entry is malformed: the
    whole-column tests run in no particular order and name no entry."""
    try:
        if not set(map(type, raw)) <= {dict}:
            return None
        image_ids = [e["image_id"] for e in raw]
        category_ids = [e["category_id"] for e in raw]
        bboxes = [e["bbox"] for e in raw]
        scores = [e["score"] for e in raw]
        if not (set(map(type, bboxes)) <= {list} and set(map(len, bboxes)) <= {4}):
            return None
        values = list(chain.from_iterable(bboxes))
        # exact types: no str or bool, and np.array would read None as NaN
        if not (set(map(type, values)).union(map(type, scores)) <= {int, float}
                and set(map(type, image_ids)).union(map(type, category_ids)) <= {int}):
            return None
        bbox = np.array(values, dtype=np.float64).reshape(-1, 4)
        score = np.array(scores, dtype=np.float64)
        if not (np.isfinite(bbox).all() and (bbox[:, 2:] >= 0.0).all()
                and (score >= 0.0).all() and (score <= 1.0).all()):
            return None
        image_id = np.array(image_ids, dtype=np.int64)
        category_id = np.array(category_ids, dtype=np.int64)
    except (KeyError, OverflowError):  # OverflowError: an integer beyond float64 or int64
        return None
    return Detections(image_id=image_id, category_id=category_id, bbox=bbox, score=score)


def _entry_error(entry) -> str | None:
    """Why entry is malformed, by the first check it fails, or None."""
    if type(entry) is not dict:
        return "entry is not an object"
    missing = next((k for k in _KEYS if k not in entry), None)
    if missing:
        return f"missing key {missing!r}"
    image_id, category_id, bbox, score = (entry[k] for k in _KEYS)
    if type(bbox) is not list or len(bbox) != 4:
        return f"bbox must be a 4-element array, got {bbox!r}"
    if {str, bool} & set(map(type, [*bbox, score])):  # float() takes these
        return (f"non-numeric field: bbox values and score must be JSON numbers, "
                f"got bbox={bbox!r}, score={score!r}")
    if type(image_id) is not int or type(category_id) is not int:
        return (f"id is not a JSON integer (numeric values are not coerced): "
                f"image_id={image_id!r}, category_id={category_id!r}")
    try:
        bbox, score = tuple(map(float, bbox)), float(score)
    except (TypeError, OverflowError) as exc:
        return f"non-numeric field: {exc}"
    if not all(map(math.isfinite, bbox)):
        return f"non-finite bbox value in {bbox}"
    if bbox[2] < 0.0 or bbox[3] < 0.0:
        return f"negative box extent in {bbox}"
    if not 0.0 <= score <= 1.0:
        return f"score {score} outside [0, 1]"
    if image_id not in _INT64 or category_id not in _INT64:
        return f"id outside the int64 range: image_id={image_id}, category_id={category_id}"


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
    try:
        edges = tuple(map(float, bucket_edges))
    except (TypeError, ValueError):
        raise DomainError(f"bucket edges must be numbers, got {bucket_edges!r}") from None
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
    each weight and bias has the shape that w_row's and w_col's first extents
    W_o and H_o give it, and the spatial extents equal them. This rigidity is
    exactly what the adaptive tiling wrapper removes."""
    x = tensor(x)
    w_o, h_o = (len(w) if np.ndim(w) else 0 for w in (weights.w_row, weights.w_col))
    for name, shape in (("w_row", (w_o, w_o)), ("b_row", (w_o,)),
                        ("w_col", (h_o, h_o)), ("b_col", (h_o,))):
        got = np.shape(getattr(weights, name))
        if got != shape:
            raise DimensionError(f"{name} must have shape {shape}, got {got}")
    if x.ndim != 3 or x.shape[1] != h_o or x.shape[2] != w_o:
        raise DimensionError(
            f"fixed-size operator expects [C, {h_o}, {w_o}] input, got shape {x.shape}"
        )
    rows = x @ weights.w_row.T + weights.b_row
    return weights.w_col @ rows + weights.b_col[None, :, None]
