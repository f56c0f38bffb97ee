"""The library's rejection contract, checked one way for every rejected call.

Each row of _REJECTED is (id, call, error, needle). call is a function of no
arguments, or the bytes of a file for ingest_coco_results to read. It must
raise exactly error, a SodkitError subclass, with a one-line message in which
re.search finds needle: rejection.assert_rejected, which the parametrized
rejection tests of the other modules use too.
The CLI's rejections are the rows of tests/test_cli.py's _REJECTED.
"""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from sodkit import (
    BoostConfig, CCTMParams, DimensionError, DomainError, FixedSizeMlpWeights, ParseError,
    RunConfig, TilingError, boost_loss, cctm_backward, cctm_forward, clap_apply, cross_gate,
    fixed_size_mlp, gelu, grn, ingest_coco_results, make_rng, plan_grid, positive_weight,
    reassemble, score_stats, size_factor, split, synth_dataset, tensor, train_toy, weight_table,
)
from sodkit.fusion import gradient_check

from rejection import assert_rejected, whole as _whole
from test_boost import sample
from test_fusion import _problem
from test_harness import _valid_entries, make_dets


def _normal(seed, shape):
    return make_rng(seed).standard_normal(shape)


def _params(c, seed, **fields):
    return dataclasses.replace(CCTMParams.random(c, make_rng(seed)), **fields)


def _forward(p, seed, shape):
    """cctm_forward(e, e, p) for e drawn from make_rng(seed)."""
    e = _normal(seed, shape)
    return cctm_forward(e, e, p)


def _backward(e, b, up, p, params=None, **fields):
    """cctm_backward after cctm_forward(e, b, p), given params or else p with
    the given fields."""
    acts = cctm_forward(e, b, p)[1]
    return cctm_backward(acts, params or dataclasses.replace(p, **fields), up)


_TOO_LARGE = _valid_entries(3)
_TOO_LARGE[2]["bbox"][1] = 2**1100
_NEGATIVE_H = _valid_entries(3)
_NEGATIVE_H[1]["bbox"][3] = -1
_PATCH, _WIDE, _THIN = (2, 4, 4), (2, 4, 5), (1, 4, 4)

_REJECTED = [
    # boost
    *[(f"size_factor-{h}x{w}", lambda h=h, w=w: size_factor(h, w, 100, 100), DomainError,
       _whole(message)) for h, w, message in [
          (0, 5, "extents must be positive and finite, got box 0x5 in image 100x100"),
          (5, -1, "extents must be positive and finite, got box 5x-1 in image 100x100"),
          (101, 5, "box 101x5 exceeds image 100x100")]],
    *[(f"BoxSample-{key}-{value}", lambda kw={key: value}: sample(**kw), DomainError,
       _whole(message)) for key, value, message in [
          ("y", 2, "class indicator must be 0 or 1, got 2"),
          ("p", 1.5, "probability must lie in [0, 1], got 1.5"),
          ("h", 2048, "positive box 2048x8 must fit inside image 1024x1024")]],
    ("positive_weight-1.5", lambda: positive_weight(1.5, 0.5, BoostConfig()), DomainError,
     _whole("size factors must lie in [0, 1], got 1.5, 0.5")),
    ("boost_loss-empty", lambda: boost_loss([], BoostConfig(N=1)), DomainError,
     _whole("empty sample list")),
    ("weight_table-no-sizes", lambda: weight_table([], 1024, 1024, 0.25, [1.0]), DomainError,
     _whole("empty size list")),
    ("weight_table-no-betas", lambda: weight_table([(2, 2), (8, 8)], 1024, 1024, 0.25, []),
     DomainError, _whole("empty beta list")),
    ("weight_table-size-of-3", lambda: weight_table([(2, 2, 2)], 1024, 1024, 0.25, [1.0]),
     DomainError, _whole("object sizes must be (h, w) pairs, got (2, 2, 2)")),
    # fusion
    ("cctm_backward-stale-upstream",
     lambda: _backward(e := _normal(28, (1, 2, 3)), e, np.zeros((1, 2, 4)), _params(2, 27)),
     DimensionError, _whole("upstream shape (1, 2, 4) != output (1, 2, 3)")),
    # a (1,) ln1_gamma would broadcast over every channel, and the others
    # would fail inside numpy, without the forward's check of the params
    *[(f"cctm_backward-{name}-{shape}", lambda kw={name: np.ones(shape)}:
       _backward(*_problem((1, 4, 5), 92), **kw), DimensionError,
       _whole(f"{name} must be {want}, got {shape}")) for name, shape, want in [
          ("ln1_gamma", (1,), (4,)), ("mlp_b_w2", (3, 3), (4, 4)), ("grn_gamma", (3,), (4,))]],
    ("cctm_backward-params-of-3-channels",
     lambda: _backward(*_problem((1, 4, 5), 93), params=CCTMParams.random(3, make_rng(94))),
     DimensionError, _whole("channel count 4 != params C=3")),
    *[(f"gradient_check-{len(shape)}-extents", lambda shape=shape: gradient_check(0, shape),
       DimensionError, _whole(f"expected three extents B,C,L, got {shape!r}"))
      for shape in [(1, 3), (), (1, 3, 5, 1)]],
    ("gradient_check-C-True", lambda: gradient_check(0, (1, True, 2)), DimensionError,
     _whole("C must be a positive integer, got True")),
    *[(f"CCTMParams.random-{c}", lambda c=c: CCTMParams.random(c, make_rng(0)), DimensionError,
       _whole(f"C must be a positive integer, got {c!r}")) for c in (0, -1, True)],
    # beyond numpy's largest C x C float64 array, beyond every numpy integer,
    # and beyond float64
    *[(f"CCTMParams.random-{name}", lambda c=c: CCTMParams.random(c, make_rng(0)),
       DimensionError, _whole(f"C must be at most 1073741823 for a C x C float64 array, got {c}"))
      for name, c in [("2**40", 2**40), ("2**64", 2**64), ("10**400", 10**400)]],
    # 2BCL + 5C^2 + 9C coordinates at B = L = 1
    ("gradient_check-C-2**64", lambda: gradient_check(0, (1, 2**64, 1)), DimensionError,
     _whole(f"a gradient check at B,C,L = 1,{2**64},1 perturbs {5 * 2**128 + 11 * 2**64} "
            "coordinates, more than the bound of 16384")),
    ("validate-mlp_e_w2-(3, 2)", lambda: _params(3, 50, mlp_e_w2=np.zeros((3, 2))).validate(),
     DimensionError, _whole("mlp_e_w2 must be (3, 3), got (3, 2)")),
    ("validate-grn_eps-0.0", lambda: _params(3, 51, grn_eps=0.0).validate(), DomainError,
     _whole("grn_eps must be positive, got 0.0")),
    ("cctm_forward-4-channels-for-3", lambda: _forward(_params(3, 52), 53, (1, 4, 5)),
     DimensionError, _whole("channel count 4 != params C=3")),
    ("cctm_forward-no-batch-axis", lambda: _forward(_params(3, 59), 60, (3, 5)), DimensionError,
     _whole("expected [batch, channels, tokens], got shape (3, 5)")),
    # 5 C^2 + 9 C = 72 numbers at C = 3; a short vector is refused before a
    # field's reshape fails on its tail
    *[(f"with_vector-length-{n}", lambda n=n: _params(3, 61).with_vector(np.zeros(n)),
       DimensionError, _whole(f"vector length {n}, expected 72")) for n in (71, 73)],
    ("cross_gate-4-channels-for-3",
     lambda: cross_gate(e := _normal(55, (1, 4, 5)), e, _params(3, 54)),
     DimensionError, _whole("channel count 4 != params C=3")),
    ("cross_gate-shape-mismatch",
     lambda: cross_gate(e := _normal(56, (1, 3, 5)), e[:, :, :4], _params(3, 54)),
     DimensionError, _whole("shape mismatch: (1, 3, 4) vs (1, 3, 5)")),
    ("grn-eps-0.0", lambda: grn(_normal(58, (2, 3, 4)), np.ones(3), np.zeros(3), eps=0.0),
     DomainError, _whole("eps must be positive, got 0.0")),
    # harness
    ("synth_dataset-n-0", lambda: synth_dataset(0, 0), DomainError,
     _whole("n must be a positive integer, got 0")),
    ("synth_dataset-n-True", lambda: synth_dataset(0, True), DomainError,
     _whole("n must be a positive integer, got True")),
    ("synth_dataset-seed--1", lambda: synth_dataset(-1, 2), DomainError,
     _whole("seed must be a non-negative integer, got -1")),
    ("train_toy-15-features",
     lambda: train_toy(dataclasses.replace(d := synth_dataset(3, 5), features=d.features[:, :-1]),
                       RunConfig(epochs=1, seed=3, n=5)),
     DimensionError, _whole("SynthData.features has shape (5, 15), expected (5, 16)")),
    # 10 samples against the default n: the config checks come first
    *[(f"train_toy-{name}", lambda cfg=cfg: train_toy(synth_dataset(5, 10), cfg), DomainError,
       _whole(message)) for name, cfg, message in [
          ("loss-hinge", RunConfig(loss="hinge"), "loss must be 'boost' or 'focal', got 'hinge'"),
          ("lr-0.0", RunConfig(lr=0.0), "learning rate must be positive, got 0.0"),
          ("epochs--1", RunConfig(epochs=-1), "epochs must be a non-negative integer, got -1"),
          ("epochs-True", RunConfig(epochs=True),
           "epochs must be a non-negative integer, got True"),
          ("seed-True", RunConfig(seed=True), "seed must be a non-negative integer, got True")]],
    # True equals the one sample's count, so only the rule for n refuses it
    ("train_toy-n-True", lambda: train_toy(synth_dataset(0, 1), RunConfig(n=True, epochs=1)),
     DomainError, _whole("n must be a positive integer, got True")),
    ("score_stats-threshold-1.5", lambda: score_stats(make_dets([]), threshold=1.5), DomainError,
     _whole("threshold must lie in [0, 1], got 1.5")),
    *[(f"score_stats-edges-{edges}",
       lambda edges=edges: score_stats(make_dets([]), threshold=0.5, bucket_edges=edges),
       DomainError, _whole(f"bucket edges must be {what}, got {edges}"))
      for edges, what in [((0.0, 5.0, 5.0), "strictly increasing"), ((math.nan,), "finite"),
                          ((0.0, math.nan), "finite"), ((0.0, math.inf), "finite"),
                          ((-math.inf, 0.0), "finite")]],
    ("score_stats-edges-text", lambda: score_stats(make_dets([]), 0.5, ("a",)), DomainError,
     _whole("bucket edges must be numbers, got ('a',)")),
    *[(f"fixed_size_mlp-{shape}",
       lambda shape=shape: fixed_size_mlp(np.zeros(shape), FixedSizeMlpWeights.identity(5, 7)),
       DimensionError, _whole(f"fixed-size operator expects [C, 5, 7] input, got shape {shape}"))
      for shape in [(1, 5, 8), (1, 6, 7)]],
    ("fixed_size_mlp-b_row-of-3",
     lambda: fixed_size_mlp(np.zeros((1, 4, 4)), FixedSizeMlpWeights(
         np.eye(4), np.zeros(3), np.eye(4), np.zeros(4))),
     DimensionError, _whole("b_row must have shape (4,), got (3,)")),
    ("FixedSizeMlpWeights.identity-H_o--1", lambda: FixedSizeMlpWeights.identity(-1, 2),
     DimensionError, _whole("H_o must be a positive integer, got -1")),
    ("ingest-y-2**1100", json.dumps(_TOO_LARGE).encode(), ParseError,
     "^entry 2: non-numeric field: int too large to convert"),
    ("ingest-negative-h", json.dumps(_NEGATIVE_H).encode(), ParseError,
     _whole("entry 1: negative box extent in (1.0, 0.5, 2.25, -1.0)")),
    ("ingest-nested-too-deeply", b"[" * 100_000 + b"]" * 100_000, ParseError,
     _whole("JSON nested too deeply")),
    # an int is a path, not a file descriptor to read and close
    *[(f"ingest-{name}", lambda path=path: ingest_coco_results(path), DomainError,
       _whole(f"path must be a str, bytes or os.PathLike object, got {path!r}"))
      for name, path in [("fd-0", 0), ("path-True", True)]],
    ("ingest-empty", b"", ParseError, "^not valid JSON: "),
    ("ingest-cut-short", b'[{"image_id": 1,', ParseError, "^not valid JSON: "),
    # two bytes that start UTF-16 text, UTF-16 with a byte-order mark, and a
    # Latin-1 'é'
    *[(f"ingest-{name}", data, ParseError,
       f"^not UTF-8 text: 'utf-8' codec can't decode byte 0x{data[at]:02x} in position {at}")
      for name, data, at in [
          ("utf-16-start", b"\xff\xfe", 0), ("utf-16", '[{"image_id": 1}]'.encode("utf-16"), 0),
          ("latin-1", '[{"image_id": 1, "name": "café"}]'.encode("latin-1"), 29)]],
    # numeric
    ("make_rng-True", lambda: make_rng(True), DomainError,
     _whole("seed must be a non-negative integer, got True")),
    ("tensor-ragged", lambda: tensor([[1], [1, 2]]), DimensionError,
     "^not a rectangular array: setting an array element with a sequence"),
    ("tensor-complex", lambda: tensor(np.array([1.0, 2j])), DomainError,
     _whole("expected real values, got a complex128 array")),
    ("tensor-str", lambda: tensor("1.5"), DomainError,
     _whole("expected real values, got a <U3 array")),
    ("tensor-bytes", lambda: tensor(b"1"), DomainError,
     _whole("expected real values, got a |S1 array")),
    ("gelu-str", lambda: gelu("x"), DomainError, _whole("expected real values, got a <U1 array")),
    ("tensor-None", lambda: tensor([None, 1.0]), DomainError,
     _whole("expected real values, got an object array")),
    ("gelu-None", lambda: gelu(None), DomainError,
     _whole("expected real values, got an object array")),
    ("tensor-object", lambda: tensor(np.array([0.5, 1.5], dtype=object)), DomainError,
     _whole("expected real values, got an object array")),
    ("tensor-datetime", lambda: tensor(np.array(["2020-01-01"], dtype="datetime64[D]")),
     DomainError, _whole("expected real values, got a datetime64[D] array")),
    ("tensor-structured", lambda: tensor(np.zeros(2, dtype=[("a", "f8")])), DomainError,
     _whole("expected real values, got a [('a', '<f8')] array")),
    # tiling
    ("plan_grid-degenerate", lambda: plan_grid(6, 1, 4, 1), TilingError,
     _whole("degenerate tiling: extent 6 with patch 4 gives overlap 4 >= patch width")),
    ("plan_grid-W-0", lambda: plan_grid(0, 5, 4, 4), DimensionError,
     _whole("W must be a positive integer, got 0")),
    ("split-width-11-for-10", lambda: split(np.zeros((1, 4, 11)), plan_grid(10, 4, 4, 4)),
     DimensionError, _whole("input shape (1, 4, 11) does not match grid (4, 10)")),
    ("reassemble-1-of-2", lambda: reassemble([np.zeros((1, 1, 4))], plan_grid(7, 1, 4, 1)),
     DimensionError, _whole("expected 2 patches, got 1")),
    ("reassemble-patch-1-wide",
     lambda: reassemble([np.zeros((1, 1, 4)), np.zeros((1, 1, 5))], plan_grid(7, 1, 4, 1)),
     DimensionError, _whole("patch 1 has shape (1, 1, 5), expected (1, 1, 4)")),
    # a wrongly shaped patch in a later row is named by its index
    *[(f"reassemble-{name}",
       lambda shapes=shapes: reassemble(list(map(np.zeros, shapes)), plan_grid(10, 10, 4, 4)),
       DimensionError, _whole(message)) for name, shapes, message in [
          ("8-of-9", [_PATCH] * 8, "expected 9 patches, got 8"),
          ("patch-7-wide", [_PATCH] * 7 + [_WIDE, _PATCH],
           "patch 7 has shape (2, 4, 5), expected (2, 4, 4)"),
          ("patch-4-thin", [_PATCH] * 4 + [_THIN, _PATCH, _PATCH, _WIDE, _PATCH],
           "patch 4 has shape (1, 4, 4), expected (2, 4, 4)")]],
    ("clap_apply-no-channel-axis", lambda: clap_apply(np.zeros((64, 64)), lambda p: p, 32, 32),
     DimensionError, _whole("expected a [C, H, W] input, got shape (64, 64)")),
    ("clap_apply-op-changes-shape",
     lambda: clap_apply(np.zeros((1, 64, 64)), lambda p: p[:, :1, :1], 32, 32),
     DimensionError, _whole("operator changed patch 0 shape (1, 32, 32) -> (1, 1, 1)")),
]
assert len({row[0] for row in _REJECTED}) == len(_REJECTED)


def test_a_whole_float_or_a_numpy_integer_counts_as_its_int():
    a, b = synth_dataset(0, 2.0), synth_dataset(0, 2)
    assert all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("features", "y", "sides", "bucket"))
    assert np.array_equal(make_rng(np.uint64(5)).integers(2**63, size=8),
                          make_rng(5).integers(2**63, size=8))
    assert (train_toy(synth_dataset(3, 50.0), RunConfig(n=50.0, seed=np.int64(3), epochs=2.0))
            .csv_lines() == train_toy(synth_dataset(3, 50), RunConfig(n=50, seed=3, epochs=2))
            .csv_lines())


@pytest.mark.parametrize("call,error,needle", [row[1:] for row in _REJECTED],
                         ids=[row[0] for row in _REJECTED])
def test_rejection_is_one_line(tmp_path, call, error, needle):
    if isinstance(call, bytes):
        (tmp_path / "r.json").write_bytes(call)
        call = functools.partial(ingest_coco_results, str(tmp_path / "r.json"))
    assert_rejected(call, error, needle)
