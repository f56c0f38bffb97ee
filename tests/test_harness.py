import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodkit import harness, make_rng, numeric
from sodkit.boost import (
    BoostConfig, BoxSample, _cls_loss_and_grad, boost_loss, boost_loss_grad, focal_loss,
    focal_loss_grad,
)
from sodkit.errors import DimensionError, DomainError, ParseError, TrainingError
from sodkit.harness import (
    BUCKET_EDGES,
    BUCKET_NAMES,
    IMAGE_SIDE,
    Detections,
    FixedSizeMlpWeights,
    RunConfig,
    SynthData,
    fixed_size_mlp,
    ingest_coco_results,
    score_stats,
    synth_dataset,
    train_toy,
)
from sodkit.tiling import clap_apply

from rejection import assert_rejected, whole
from test_scripts import digest_rows

# frozen from a reference run of the generator (seed 42, n = 100000)
GOLDEN_BUCKET_COUNTS = {
    "very_tiny": 12568, "tiny": 15491, "small": 21821, "medium": 32020, "large": 18100,
}

_COLUMNS = ("features", "y", "sides", "bucket")


def assert_synth_columns(data, n):
    """data holds n rows, with the documented dtypes and shapes."""
    assert len(data) == n
    for col, dtype, shape in ((data.features, np.float64, (n, 16)), (data.y, np.int64, (n,)),
                              (data.sides, np.float64, (n, 2)), (data.bucket, np.int64, (n,))):
        assert col.dtype == dtype and col.shape == shape


def test_synth_deterministic():
    a = synth_dataset(7, 50)
    b = synth_dataset(7, 50)
    for col in _COLUMNS:
        assert np.array_equal(getattr(a, col), getattr(b, col))
    c = synth_dataset(8, 50)
    assert not np.array_equal(a.features, c.features)


def test_synth_single_sample_in_range():
    data = synth_dataset(0, 1)
    assert_synth_columns(data, 1)
    assert data.y[0] in (0, 1)
    ((h, w),) = data.sides.tolist()
    assert 2.0 <= h <= 512.0 and 2.0 <= w <= 512.0
    assert 0 <= data.bucket[0] < len(BUCKET_NAMES)


def test_synth_golden_bucket_counts():
    data = synth_dataset(42, 100_000)
    counts = {name: 0 for name in BUCKET_NAMES}
    for b in data.bucket.tolist():
        counts[BUCKET_NAMES[b]] += 1
    assert counts == GOLDEN_BUCKET_COUNTS
    assert all(v > 0 for v in counts.values())


def size_bucket(h: float, w: float) -> str:
    """Oracle: the size bucket of one h x w box, from its own math.sqrt."""
    side = math.sqrt(h * w)
    idx = int(np.searchsorted(BUCKET_EDGES[1:], side, side="right"))
    return BUCKET_NAMES[idx]


def test_size_bucket_edges():
    assert size_bucket(2, 2) == "very_tiny"
    assert size_bucket(8, 8) == "tiny"
    assert size_bucket(4, 16) == "tiny"  # sqrt(64) = 8
    assert size_bucket(16, 16) == "small"
    assert size_bucket(32, 32) == "medium"
    assert size_bucket(96, 96) == "large"
    assert size_bucket(512, 512) == "large"


@pytest.mark.parametrize("n", [1, 7, 20_000])
@pytest.mark.parametrize("seed", [0, 3, 42])
def test_synth_buckets_match_size_bucket(seed, n):
    data = synth_dataset(seed, n)
    assert_synth_columns(data, n)
    assert all(BUCKET_NAMES[b] == size_bucket(h, w)
               for b, (h, w) in zip(data.bucket.tolist(), data.sides.tolist()))


# y sets the row count, so a y of another length is reported as the first
# column that disagrees with it
@pytest.mark.parametrize("column,shape,reported", [
    ("features", (5, 15), "features"), ("features", (4, 16), "features"),
    ("features", (5,), "features"),
    ("y", (4,), "features"), ("y", (6,), "features"), ("y", (5, 1), "y"),
    ("sides", (4, 2), "sides"), ("sides", (5, 3), "sides"),
    ("bucket", (4,), "bucket"), ("bucket", (6,), "bucket"),
])
def test_synth_data_rejects_inconsistent_columns(column, shape, reported):
    data = synth_dataset(3, 5)
    bad = np.zeros(shape, dtype=getattr(data, column).dtype)
    assert_rejected(lambda: dataclasses.replace(data, **{column: bad}), DimensionError,
                    rf"^SynthData\.{reported} has shape \(")


# A frozen copy of the trainer's per-quantity loss functions as they stood
# before train_toy evaluated the loss and its gradient in one pass: the
# reference boost._cls_loss_and_grad must match bit for bit.

def _ref_clamp(p):
    return np.clip(p, 1e-12, 1.0 - 1e-12)


def _ref_pos_weight(cs_hat, cs, alpha, beta, gamma):
    return alpha * (1.0 - cs_hat**beta) ** gamma * cs**beta


def _ref_boost_terms(p, y, cs_hat, cs, alpha, beta, gamma):
    p = _ref_clamp(p)
    pos = _ref_pos_weight(cs_hat, cs, alpha, beta, gamma) * np.log(p)
    neg = (1.0 - alpha) * p**gamma * np.log(1.0 - p)
    return np.where(y == 1, pos, neg)


def _ref_boost_grad(p, y, cs_hat, cs, alpha, beta, gamma, n):
    p = _ref_clamp(p)
    pos = -_ref_pos_weight(cs_hat, cs, alpha, beta, gamma) / p
    neg = -(1.0 - alpha) * (
        gamma * p ** (gamma - 1.0) * np.log(1.0 - p) - p**gamma / (1.0 - p)
    )
    return np.where(y == 1, pos, neg) / n


def _ref_focal_terms(p, y, alpha, gamma):
    p = _ref_clamp(p)
    pos = alpha * (1.0 - p) ** gamma * np.log(p)
    neg = (1.0 - alpha) * p**gamma * np.log(1.0 - p)
    return np.where(y == 1, pos, neg)


def _ref_focal_grad(p, y, alpha, gamma, n):
    p = _ref_clamp(p)
    pos = -alpha * (-gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p) + (1.0 - p) ** gamma / p)
    neg = -(1.0 - alpha) * (
        gamma * p ** (gamma - 1.0) * np.log(1.0 - p) - p**gamma / (1.0 - p)
    )
    return np.where(y == 1, pos, neg) / n


def _ref_weight(p, cs_hat, cs, cfg):
    """The positive-term weight, as the per-bucket metrics computed it."""
    if cfg.loss == "boost":
        return _ref_pos_weight(cs_hat, cs, cfg.alpha, cfg.beta, cfg.gamma)
    return cfg.alpha * (1.0 - _ref_clamp(p)) ** cfg.gamma


def _ref_loss_grad_weight(p, y, cs_hat, cs, cfg, n):
    a, b, g = cfg.alpha, cfg.beta, cfg.gamma
    if cfg.loss == "boost":
        terms = _ref_boost_terms(p, y, cs_hat, cs, a, b, g)
        grad = _ref_boost_grad(p, y, cs_hat, cs, a, b, g, n)
    else:
        terms = _ref_focal_terms(p, y, a, g)
        grad = _ref_focal_grad(p, y, a, g, n)
    return -float(terms.sum()) / n, grad, _ref_weight(p, cs_hat, cs, cfg)


def _bits(a):
    return np.asarray(a, dtype=np.float64).reshape(-1).view(np.uint64)


_P_SPECIALS = [0.0, 1.0, 1e-13, 1.0 - 1e-13, 1e-12, 0.5]
_SIZE_FACTORS = st.floats(2.0 / IMAGE_SIDE, 0.5)


@given(
    rows=st.lists(st.tuples(st.one_of(st.floats(0.0, 1.0), st.sampled_from(_P_SPECIALS)),
                            st.integers(0, 1), _SIZE_FACTORS, _SIZE_FACTORS), max_size=40),
    loss=st.sampled_from(["boost", "focal"]),
    alpha=st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.0)),
    # products with a power-of-two gamma are exact in any order, so general
    # values are drawn too
    beta=st.one_of(st.sampled_from([1.0, 0.05, 0.3]), st.floats(0.0, 1.0, exclude_min=True)),
    gamma=st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(0.0, 4.0)),
    n=st.integers(1, 100),
)
@settings(max_examples=300, deadline=None)
def test_cls_loss_and_grad_matches_reference_bit_for_bit(rows, loss, alpha, beta, gamma, n):
    # every special probability appears as a positive and as a negative
    rows = rows + [(p, y, 0.01, 0.02) for p in _P_SPECIALS for y in (0, 1)]
    p, y, cs_hat, size = (np.array(col) for col in zip(*rows))
    cs = np.where(y == 1, size, 0.0)
    cfg = RunConfig(loss=loss, alpha=alpha, beta=beta, gamma=gamma)
    boost = loss == "boost"
    loss_cfg = BoostConfig(alpha=alpha, beta=beta, gamma=gamma, N=n)
    got = _cls_loss_and_grad(p, y == 1, cs_hat if boost else None, cs**beta, loss_cfg)
    want = _ref_loss_grad_weight(p, y, cs_hat, cs, cfg, n)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(_bits(g), _bits(w))


def model_box_samples(data: SynthData, cfg: RunConfig) -> list[BoxSample]:
    """Box samples from the freshly initialized toy model, for checking the
    trainer's loss against the scalar loss API."""
    model = harness._ToyModel(make_rng(cfg.seed))
    n = len(data)
    heads = model.forward(data.features.T, np.empty((harness.HIDDEN_DIM, n)), np.empty((3, n)))
    p, sides = heads[0], harness._decode_sides(heads[1:].T)
    return [
        BoxSample(H=IMAGE_SIDE, W=IMAGE_SIDE, h=h, w=w, y=yi, p=float(p[i]),
                  h_hat=float(sides[i, 0]), w_hat=float(sides[i, 1]))
        for i, (yi, (h, w)) in enumerate(zip(data.y.tolist(), data.sides.tolist()))
    ]


def test_vectorized_losses_match_scalar_api():
    data = synth_dataset(11, 200)
    cfg = RunConfig(loss="boost", alpha=0.25, beta=0.1, gamma=2.0, seed=11, n=200)
    samples = model_box_samples(data, cfg)
    p = np.array([s.p for s in samples])
    pos = np.array([s.y for s in samples]) == 1
    cs = np.array([math.sqrt((s.h / s.H) * (s.w / s.W)) * s.y for s in samples])
    cs_hat = np.array([math.sqrt((s.h_hat / s.H) * (s.w_hat / s.W)) for s in samples])

    bcfg = BoostConfig(alpha=0.25, beta=0.1, gamma=2.0, N=37)
    loss, grad, _ = _cls_loss_and_grad(p, pos, cs_hat, cs**0.1, bcfg)
    assert math.isclose(loss, boost_loss(samples, bcfg), rel_tol=1e-14)
    assert np.allclose(grad, boost_loss_grad(samples, bcfg), rtol=1e-14, atol=0)

    loss, grad, _ = _cls_loss_and_grad(p, pos, None, None, bcfg)
    assert math.isclose(loss, focal_loss(samples, 0.25, 2.0, n=37), rel_tol=1e-14)
    assert np.allclose(grad, focal_loss_grad(samples, 0.25, 2.0, n=37), rtol=1e-14, atol=0)


def _loop_metrics(data, p, weights):
    """Per-bucket counts, recall and mean positive weight, one row at a time,
    as running sums."""
    counts = {name: 0 for name in BUCKET_NAMES}
    hits = dict(counts)
    wcnt = dict(counts)
    wsum = {name: 0.0 for name in BUCKET_NAMES}
    for i in range(len(data)):
        name = BUCKET_NAMES[data.bucket[i]]
        counts[name] += 1
        if data.y[i] == 1:
            hits[name] += int(p[i] >= 0.5)
            wcnt[name] += 1
            wsum[name] += float(weights[i])
    recall = {k: hits[k] / wcnt[k] if wcnt[k] else math.nan for k in BUCKET_NAMES}
    mean_w = {k: wsum[k] / wcnt[k] if wcnt[k] else math.nan for k in BUCKET_NAMES}
    return counts, recall, mean_w


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (math.isnan(a[k]) and math.isnan(b[k])) for k in a
    )


@pytest.mark.parametrize("loss,beta", [("boost", 1.0), ("boost", 0.05), ("focal", 1.0)])
@pytest.mark.parametrize("seed,n,negatives_only", [
    (1, 1, False), (2, 1, False), (3, 500, False), (4, 500, True), (5, 3, True),
])
def test_train_metrics_match_per_sample_loop(monkeypatch, loss, beta, seed, n, negatives_only):
    data = synth_dataset(seed, n)
    if negatives_only:
        data = dataclasses.replace(data, y=np.zeros_like(data.y))
    seen = {}
    forward = harness._ToyModel.forward

    def spy(self, x, hidden, out):
        heads = forward(self, x, hidden, out)
        # copies: the trainer reuses the heads buffer
        seen["p"], seen["t_hat"] = heads[0].copy(), heads[1:].T.copy()
        return heads

    # the last forward's outputs are the final model's
    monkeypatch.setattr(harness._ToyModel, "forward", spy)
    cfg = RunConfig(loss=loss, beta=beta, epochs=5, seed=seed, n=n)
    got = train_toy(data, cfg)

    p, sides = seen["p"], harness._decode_sides(seen["t_hat"])
    cs_hat = np.sqrt(sides[:, 0] * sides[:, 1]) / IMAGE_SIDE
    cs = np.sqrt(data.sides[:, 0] * data.sides[:, 1]) / IMAGE_SIDE * data.y
    counts, recall, mean_w = _loop_metrics(data, p, _ref_weight(p, cs_hat, cs, cfg))
    assert got.bucket_counts == counts
    assert _same(got.bucket_recall, recall)
    assert _same(got.bucket_mean_weight, mean_w)
    if negatives_only:
        assert all(math.isnan(v) for v in got.bucket_recall.values())


# at n = 2100 the trainer's arrays are pooled, so the second run takes the
# buffers that the first gave back
@pytest.mark.parametrize("n", [300, 2100])
def test_train_twice_is_identical_and_leaves_data_unchanged(n):
    data = synth_dataset(11, n)
    before = {col: getattr(data, col).copy() for col in _COLUMNS}
    cfg = RunConfig(loss="boost", beta=0.05, epochs=15, seed=11, n=n)
    first = train_toy(data, cfg).csv_lines()
    assert train_toy(data, cfg).csv_lines() == first
    assert all(np.array_equal(getattr(data, col), v) for col, v in before.items())


# the trainer's fixed-order reduction, which numeric holds
@pytest.mark.parametrize("n", [1, 255, 256, 257, 512, 2000])
@pytest.mark.parametrize("m,k", [(3, harness.HIDDEN_DIM), (harness.HIDDEN_DIM, harness.FEATURE_DIM)])
def test_sample_sum_product_matches_matmul(n, m, k):
    rng = make_rng(n)
    # positive entries: no cancellation, so every entry has a relative error
    a, b = rng.uniform(0.5, 1.5, (m, n)), rng.uniform(0.5, 1.5, (k, n))
    got = numeric._sample_sum_product(a, b)
    assert got.shape == (m, k)
    np.testing.assert_allclose(got, a @ b.T, rtol=1e-12, atol=0)


@pytest.mark.parametrize("offset", [1, 37, 300])
def test_sample_sum_product_blocks_start_at_the_first_sample(offset):
    # the same samples inside wider arrays, from a column that is not a
    # multiple of the block size, give the same bits as a fresh copy
    n = 2000
    rng = make_rng(offset)
    wide_a = rng.standard_normal((3, n + offset + 5))
    wide_b = rng.standard_normal((harness.HIDDEN_DIM, n + offset + 5))
    a, b = wide_a[:, offset:offset + n], wide_b[:, offset:offset + n]
    got = numeric._sample_sum_product(a, b)
    want = numeric._sample_sum_product(a.copy(), b.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_train_toy_bits_do_not_depend_on_the_blas_thread_count():
    # at n = 2000 OpenBLAS splits a plain product over the samples between
    # two threads, and the digest's train row then differed in its last bits
    one, two = digest_rows(1)["train"], digest_rows(2)["train"]
    assert one.startswith("180,")
    assert one == two


def test_train_zero_epochs_reproducible():
    data = synth_dataset(5, 300)
    cfg = RunConfig(loss="boost", epochs=0, seed=5, n=300)
    m1 = train_toy(data, cfg)
    m2 = train_toy(data, cfg)
    assert m1.csv_lines() == m2.csv_lines()
    assert math.isfinite(m1.final_loss)


@pytest.mark.parametrize("n", [1, 99, 101, 5000])
def test_train_rejects_a_dataset_of_another_size(n):
    # the CSV header reports cfg.n, so it must be the count trained on
    assert_rejected(lambda: train_toy(synth_dataset(0, 100), RunConfig(n=n, epochs=1)),
                    DomainError, whole(f"dataset has 100 samples, but the config says n={n}"))


def test_train_divergence_raises_with_epoch():
    # bounded activations keep the toy model finite under any finite step, so
    # the guard is exercised with a corrupted sample: a positive whose
    # features are all inf
    data = synth_dataset(6, 100)
    bad = SynthData(
        features=np.vstack([data.features, np.full((1, 16), np.inf)]),
        y=np.append(data.y, 1),
        sides=np.vstack([data.sides, [[10.0, 10.0]]]),
        bucket=np.append(data.bucket, BUCKET_NAMES.index("tiny")),
    )
    cfg = RunConfig(loss="focal", epochs=5, lr=0.5, seed=6, n=101)
    with pytest.raises(TrainingError) as info:
        train_toy(bad, cfg)
    assert info.value.epoch == 0


def test_train_boost_small_run_weight_ordering():
    data = synth_dataset(42, 2000)
    cfg = RunConfig(loss="boost", alpha=0.25, beta=0.05, gamma=2.0,
                    epochs=150, lr=0.5, seed=42, n=2000)
    m = train_toy(data, cfg)
    w = m.bucket_mean_weight
    assert w["very_tiny"] > w["large"]


def test_train_focal_ignores_beta():
    data = synth_dataset(9, 400)
    a = train_toy(data, RunConfig(loss="focal", beta=0.05, epochs=20, seed=9, n=400))
    b = train_toy(data, RunConfig(loss="focal", beta=1.0, epochs=20, seed=9, n=400))
    assert a.final_loss == b.final_loss


def assert_columns(dets, image_id, category_id, bbox, score):
    """dets holds exactly these rows, with the documented dtypes and shapes."""
    n = len(score)
    for col, dtype, shape in ((dets.image_id, np.int64, (n,)),
                              (dets.category_id, np.int64, (n,)),
                              (dets.bbox, np.float64, (n, 4)),
                              (dets.score, np.float64, (n,))):
        assert col.dtype == dtype and col.shape == shape
    assert dets.image_id.tolist() == image_id
    assert dets.category_id.tolist() == category_id
    assert dets.bbox.tolist() == [list(b) for b in bbox]
    assert dets.score.tolist() == score


def test_ingest_empty_array(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[]")
    assert_columns(ingest_coco_results(str(path)), [], [], [], [])


def test_ingest_round_trip(tmp_path):
    entry = {"image_id": 3, "category_id": 17, "bbox": [1.5, 2.0, 10.0, 4.0], "score": 0.75}
    path = tmp_path / "r.json"
    path.write_text(json.dumps([entry]))
    dets = ingest_coco_results(str(path))
    assert_columns(dets, [3], [17], [(1.5, 2.0, 10.0, 4.0)], [0.75])


@pytest.mark.parametrize("entry,needle", [
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, 3], "score": 0.5}, "bbox"),
    ({"category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5}, "image_id"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, 3, 4], "score": 1.5}, "score"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, -3, 4], "score": 0.5}, "negative"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, "x", 4], "score": 0.5}, "numeric"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, float("nan"), 4], "score": 0.5},
     "non-finite"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, float("-inf"), 3, 4], "score": 0.5},
     "non-finite"),
    ({"image_id": float("inf"), "category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5},
     "numeric"),
    ({"image_id": 2**63, "category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5}, "int64"),
    ({"image_id": 1, "category_id": -(2**63) - 1, "bbox": [1, 2, 3, 4], "score": 0.5}, "int64"),
    ({"image_id": 3.7, "category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5}, "JSON integer"),
    ({"image_id": 3.0, "category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5}, "JSON integer"),
    ({"image_id": 1, "category_id": True, "bbox": [1, 2, 3, 4], "score": 0.5}, "JSON integer"),
    ({"image_id": "7", "category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5}, "JSON integer"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, 3, 4], "score": "0.5"}, "JSON numbers"),
    ({"image_id": 1, "category_id": 1, "bbox": ["0", 2, 3, 4], "score": 0.5}, "JSON numbers"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, True, 4], "score": 0.5}, "JSON numbers"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, 3, 4], "score": False}, "JSON numbers"),
    ([1, 2, 3, 4], "entry is not an object"),
    ({"image_id": 1, "category_id": 1, "bbox": {"x": 1, "y": 2, "w": 3, "h": 4}, "score": 0.5},
     "bbox must be a 4-element array"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, None, 4], "score": 0.5},
     r"non-numeric field: float\(\) argument .* not 'NoneType'"),
    ({"image_id": 1, "category_id": 1, "bbox": [1, 2, 3, 4], "score": 2**1100},
     "non-numeric field: int too large to convert to float"),
])
def test_ingest_malformed_entry_carries_index(tmp_path, entry, needle):
    good = {"image_id": 0, "category_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}
    path = tmp_path / "r.json"
    path.write_text(json.dumps([good, entry]))
    # the contract also checks that the error's index is the 1 the message names
    assert_rejected(lambda: ingest_coco_results(str(path)), ParseError, f"^entry 1: .*{needle}")


def _ingest_reference(raw):
    """The entry-by-entry ingest that built one Detection per entry, frozen
    here as the reference, with the int64 id rule added as its last check
    and the rule against coercion (a string or boolean bbox value or score,
    an id that is not a JSON integer) added before its conversions:
    (image_id, category_id, bbox, score) rows, or the first entry's
    ParseError."""
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
        if any(isinstance(v, (str, bool)) for v in (*bbox, entry["score"])):
            raise ParseError(
                f"non-numeric field: bbox values and score must be JSON numbers, "
                f"got bbox={bbox!r}, score={entry['score']!r}",
                index=i,
            )
        if not all(type(entry[key]) is int for key in ("image_id", "category_id")):
            raise ParseError(
                f"id is not a JSON integer (numeric values are not coerced): "
                f"image_id={entry['image_id']!r}, category_id={entry['category_id']!r}",
                index=i,
            )
        try:
            bbox = tuple(float(v) for v in bbox)
            score = float(entry["score"])
            image_id = int(entry["image_id"])
            category_id = int(entry["category_id"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"non-numeric field: {exc}", index=i) from None
        if not all(map(math.isfinite, bbox)):
            raise ParseError(f"non-finite bbox value in {bbox}", index=i)
        if bbox[2] < 0 or bbox[3] < 0:
            raise ParseError(f"negative box extent in {bbox}", index=i)
        if not 0.0 <= score <= 1.0:
            raise ParseError(f"score {score} outside [0, 1]", index=i)
        if not all(-(2**63) <= v < 2**63 for v in (image_id, category_id)):
            raise ParseError(
                f"id outside the int64 range: image_id={image_id}, category_id={category_id}",
                index=i,
            )
        out.append((image_id, category_id, bbox, score))
    return out


_SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**1100]),
    st.floats(),  # NaN and +-inf serialize as the NaN and Infinity literals
    st.booleans(),
    st.none(),
    st.sampled_from(["3.5", "7", "-0", "0.5", "nan", "inf", "1e400", " 2 ", "x", ""]),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=5), max_leaves=8)
_KEYS = ("image_id", "category_id", "bbox", "score")
_GOOD_ENTRY = st.fixed_dictionaries({
    "image_id": st.integers(0, 50),
    "category_id": st.integers(1, 80),
    "bbox": st.lists(st.floats(0, 500), min_size=4, max_size=4),
    "score": st.floats(0, 1),
})
_ID_EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 9.3e18, -9.3e18, 3.7, -5,
             True, "7", "3.5", math.inf, math.nan, None, []]
_EDGE_VALUES = {
    "image_id": _ID_EDGES,
    "category_id": _ID_EDGES,
    "score": [0.0, -0.0, 1.0, 1.0000000000000002, -0.5, 1.5, "0.5", "x",
              math.nan, math.inf, True, None, 2**1100, []],
    "bbox": [math.nan, math.inf, -math.inf, -0.0, -1.0, 1e308, "3.5", "x",
             True, None, 2**1100, []],  # one coordinate of a box
}


def _replace_coordinate(bbox, k, value):
    return [*bbox[:k], value, *bbox[k + 1:]]


def _fuzz_field(entry, key):
    """entry with the value of key replaced by an edge value or any value;
    for bbox, also one coordinate replaced by an edge value."""
    edge = st.sampled_from(_EDGE_VALUES[key])
    if key == "bbox":
        edge = st.tuples(st.integers(0, 3), edge).map(
            lambda kv: _replace_coordinate(entry["bbox"], *kv))
        value = st.one_of(edge, st.lists(_VALUES, max_size=6), _VALUES)
    else:
        value = st.one_of(edge, _VALUES)
    return value.map(lambda v: {**entry, key: v})


def _drop_field(entry, key):
    return {k: v for k, v in entry.items() if k != key}


_FUZZED_ENTRY = st.tuples(_GOOD_ENTRY, st.sampled_from(_KEYS)).flatmap(lambda ek: _fuzz_field(*ek))
# mostly one fuzzed field, which may still be a good value; else a missing key
# or an entry that is not an object
_BAD_ENTRY = st.integers(0, 4).flatmap(lambda k: (
    _FUZZED_ENTRY if k < 3
    else st.tuples(_GOOD_ENTRY, st.sampled_from(_KEYS)).map(lambda ek: _drop_field(*ek)) if k == 3
    else _VALUES
))


def _insert(entries, inserts):
    entries = list(entries)
    for pos, entry in inserts:
        entries.insert(pos, entry)
    return entries


_ENTRIES = st.builds(_insert, st.lists(_GOOD_ENTRY, max_size=5),
                     st.lists(st.tuples(st.integers(0, 5), _BAD_ENTRY), max_size=2))
_NOT_ARRAYS = st.one_of(_VALUES, st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2))
# one file in eight has any value or an object as its top level
_COCO_TEXT = st.integers(0, 7).flatmap(lambda k: _NOT_ARRAYS if k == 7 else _ENTRIES).map(json.dumps)


@given(text=_COCO_TEXT)
@settings(max_examples=400, deadline=None)
def test_ingest_matches_per_entry_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "coco_results.json"
    path.write_text(text)
    try:
        want = _ingest_reference(json.loads(text))
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            ingest_coco_results(str(path))
        assert (info.value.index, str(info.value)) == (exc.index, str(exc))
        return
    dets = ingest_coco_results(str(path))
    image_id, category_id, bbox, score = [list(col) for col in zip(*want)] or [[]] * 4
    assert_columns(dets, image_id, category_id, bbox, score)
    # -0.0 == 0.0, so compare signs too: the values are the reference's bit for bit
    assert np.signbit(dets.bbox).tolist() == [[math.copysign(1, v) < 0 for v in b] for b in bbox]
    assert np.signbit(dets.score).tolist() == [math.copysign(1, v) < 0 for v in score]


def test_ingest_keeps_int64_extremes(tmp_path):
    entry = {"image_id": 2**63 - 1, "category_id": -(2**63), "bbox": [0, 0, 1, 1], "score": 1}
    path = tmp_path / "r.json"
    path.write_text(json.dumps([entry]))
    assert_columns(ingest_coco_results(str(path)), [2**63 - 1], [-(2**63)],
                   [(0.0, 0.0, 1.0, 1.0)], [1.0])


def _results_file(tmp_path, entries):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(entries))
    return str(path)


def _valid_entries(n):
    return [{"image_id": j // 20, "category_id": 1 + j % 80,
             "bbox": [j % 600, 0.5 * j, 1.25 + j % 400, 3], "score": (j % 101) / 100}
            for j in range(n)]


# each later bad entry fails an earlier check than the one before it, so the
# entry to report is found only by checking the entries before each failure
@pytest.mark.parametrize("bad,first", [
    ({700: {"score": 1.5}, 900: {"bbox": [0, 0, -1, 1]}}, 700),
    ({200: {"image_id": 2**63}, 500: {"score": 1.5}, 800: {"bbox": [0, "0", 1, 1]}}, 200),
], ids=["two", "chain-of-three"])
def test_ingest_reports_the_first_of_two_bad_entries(tmp_path, bad, first):
    entries = _valid_entries(1000)
    for i, fields in bad.items():
        entries[i] = {**entries[i], **fields}
    with pytest.raises(ParseError) as want:
        _ingest_reference(entries)
    with pytest.raises(ParseError) as got:
        ingest_coco_results(_results_file(tmp_path, entries))
    assert want.value.index == first
    assert (got.value.index, str(got.value)) == (first, str(want.value))


@pytest.mark.parametrize("bad,calls", [(0, 1), (3, 2)])
def test_ingest_checks_the_prefix_only_when_there_is_one(tmp_path, monkeypatch, bad, calls):
    entries = _valid_entries(5)
    entries[bad]["score"] = 1.5
    seen = []
    columns = harness._columns

    def spy(raw):
        seen.append(len(raw))
        return columns(raw)

    monkeypatch.setattr(harness, "_columns", spy)
    with pytest.raises(ParseError, match="outside") as info:
        ingest_coco_results(_results_file(tmp_path, entries))
    assert info.value.index == bad
    assert len(seen) == calls


@pytest.mark.parametrize("value", [2**53 + 1, 2**63 + 12345, int(sys.float_info.max) - 2**900])
def test_ingest_converts_large_integers_as_float_does(tmp_path, value):
    entry = {"image_id": 1, "category_id": 1, "bbox": [value, 0, value, 1], "score": 1}
    bbox = ingest_coco_results(_results_file(tmp_path, [entry])).bbox
    assert bbox.tobytes() == np.array([[float(value), 0.0, float(value), 1.0]]).tobytes()


def test_ingest_accepts_extra_keys(tmp_path):
    entries = [{**e, "segmentation": [[0, 0, 1, 1]], "area": 4.0} for e in _valid_entries(5)]
    rows = _ingest_reference(_valid_entries(5))
    image_id, category_id, bbox, score = [list(col) for col in zip(*rows)]
    assert_columns(ingest_coco_results(_results_file(tmp_path, entries)),
                   image_id, category_id, bbox, score)


@pytest.mark.parametrize("n", [0, 1, 2000])
def test_ingest_columns_are_c_contiguous(tmp_path, n):
    dets = ingest_coco_results(_results_file(tmp_path, _valid_entries(n)))
    assert all(col.flags.c_contiguous
               for col in (dets.image_id, dets.category_id, dets.bbox, dets.score))


def make_dets(rows):
    """Detections with boxes (0, 0, w, h) and scores s from (w, h, s) rows."""
    n = len(rows)
    wh_s = np.array(rows, dtype=np.float64).reshape(n, 3)
    bbox = np.zeros((n, 4))
    bbox[:, 2:] = wh_s[:, :2]
    return Detections(image_id=np.arange(n, dtype=np.int64),
                      category_id=np.ones(n, dtype=np.int64), bbox=bbox, score=wh_s[:, 2])


def test_score_stats_hand_case():
    dets = make_dets([(4, 4, 0.5), (100, 100, 0.9)])
    stats = score_stats(dets, threshold=0.4, bucket_edges=(0.0, 32.0))
    assert stats.labels == ["[0,32)", "[32,inf)"]
    assert stats.counts == [1, 1]
    assert stats.means == [0.5, 0.9]


def test_score_stats_all_below_threshold():
    dets = make_dets([(4, 4, 0.1), (100, 100, 0.2)])
    stats = score_stats(dets, threshold=0.4)
    assert sum(stats.counts) == 0
    assert all(math.isnan(m) for m in stats.means)


def test_score_stats_degenerate_single_bucket():
    dets = make_dets([(4, 4, 0.2), (9, 9, 0.4), (100, 100, 0.9)])
    stats = score_stats(dets, threshold=0.0, bucket_edges=(0.0,))
    assert stats.counts == [3]
    assert abs(stats.means[0] - 0.5) < 1e-15


def test_score_stats_counts_total_matches_threshold_filter():
    rng = make_rng(13)
    dets = make_dets([(float(rng.uniform(1, 400)), float(rng.uniform(1, 400)),
                       float(rng.uniform(0, 1))) for _ in range(300)])
    stats = score_stats(dets, threshold=0.4)
    assert sum(stats.counts) == sum(1 for s in dets.score.tolist() if s >= 0.4)


def _loop_score_stats(dets, threshold, edges):
    """One detection at a time, as a running per-bucket sum."""
    sums = [0.0] * len(edges)
    counts = [0] * len(edges)
    for (_, _, w, h), score in zip(dets.bbox.tolist(), dets.score.tolist()):
        size = math.sqrt(w * h)
        if score < threshold or size < edges[0]:
            continue
        idx = int(np.searchsorted(edges[1:], size, side="right"))
        sums[idx] += score
        counts[idx] += 1
    return counts, [s / c if c else math.nan for s, c in zip(sums, counts)]


@pytest.mark.parametrize("seed", range(8))
def test_score_stats_matches_running_loop(seed):
    rng = make_rng(300 + seed)
    n = [0, 1, 7, 2000][seed % 4]
    # square boxes with integer sides land exactly on the integer edges
    sides = [(float(rng.exponential(60.0)), float(rng.exponential(60.0))) if j % 2
             else (float(rng.integers(0, 120)),) * 2 for j in range(n)]
    dets = make_dets([(w, h, float(rng.uniform(0, 1))) for w, h in sides])
    edges = tuple(np.unique(rng.integers(0, 120, 1 + seed % 5)).astype(float).tolist())
    threshold = float(rng.uniform(0, 1))
    stats = score_stats(dets, threshold, edges)
    counts, means = _loop_score_stats(dets, threshold, edges)
    assert stats.counts == counts
    assert len(stats.means) == len(means)
    for got, want in zip(stats.means, means):
        assert got == want or (math.isnan(got) and math.isnan(want))


def test_fixed_size_mlp_identity():
    x = make_rng(1).standard_normal((3, 5, 7))
    w = FixedSizeMlpWeights.identity(5, 7)
    assert np.allclose(fixed_size_mlp(x, w), x)


def test_fixed_size_mlp_hand_evaluation():
    w = FixedSizeMlpWeights(
        w_row=np.array([[1.0, 2.0], [0.5, -1.0]]),
        b_row=np.array([0.1, -0.2]),
        w_col=np.array([[0.0, 1.0], [1.0, 0.0]]),
        b_col=np.array([1.0, 2.0]),
    )
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    rows = np.array([
        [1 * 1 + 2 * 2 + 0.1, 0.5 * 1 - 1 * 2 - 0.2],
        [1 * 3 + 2 * 4 + 0.1, 0.5 * 3 - 1 * 4 - 0.2],
    ])
    expected = np.array([rows[1] + 1.0, rows[0] + 2.0])
    assert np.allclose(fixed_size_mlp(x, w), expected[None])


def test_clap_lifts_fixed_size_restriction():
    w = FixedSizeMlpWeights.random(56, 56, make_rng(3))

    def op(patch):
        return fixed_size_mlp(patch, w)

    for h, wd in ((37, 91), (224, 224), (300, 130)):
        out = clap_apply(make_rng(4).standard_normal((1, h, wd)), op, 56, 56)
        assert out.shape == (1, h, wd)
        with pytest.raises(DimensionError):
            fixed_size_mlp(np.zeros((1, h, wd)), w)


@pytest.mark.parametrize("name,loss,beta", [
    ("golden_train_boost.csv", "boost", 1.0),
    ("golden_train_focal.csv", "focal", 1.0),
    ("golden_train_boost_b005.csv", "boost", 0.05),
])
def test_train_smoke_runs_match_golden_files(name, loss, beta):
    import pathlib

    data = synth_dataset(42, 5000)
    cfg = RunConfig(loss=loss, alpha=0.25, beta=beta, gamma=2.0,
                    epochs=200, lr=0.5, seed=42, n=5000)
    got = "\n".join(train_toy(data, cfg).csv_lines()) + "\n"
    golden = pathlib.Path(__file__).parent / "data" / name
    assert got == golden.read_text()


def test_train_beta005_bucket_weights_monotone_non_increasing():
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "golden_train_boost_b005.csv"
    weights = [float(line.split(",")[3]) for line in golden.read_text().splitlines()[2:]]
    assert len(weights) == 5
    assert all(a >= b for a, b in zip(weights, weights[1:]))
