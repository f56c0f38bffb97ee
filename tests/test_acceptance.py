"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from sodkit import make_rng
from sodkit.boost import BoostConfig, BoxSample, boost_loss, boost_loss_grad, focal_loss, positive_weight
from sodkit.cli import main
from sodkit.errors import DimensionError, TilingError
from sodkit.fusion import cross_second, gradient_check
from sodkit.harness import FixedSizeMlpWeights, fixed_size_mlp
from sodkit.numeric import sigmoid
from sodkit.tiling import clap_apply, plan_grid, reassemble, split

from test_tiling import oracle_axis


def report(criterion, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {description}")
    for f in failures:
        print(f"       - {f}")
    assert not failures, f"criterion {criterion}: {len(failures)} mismatches"


# --- criterion 1: published beta-impact table, exact at 4 decimals ---------

PUBLISHED_CS = [0.0020, 0.0078, 0.0781]
PUBLISHED_WEIGHTS = [
    [0.7189, 0.8248, 0.9423, 0.9995],   # 2x2,   betas 0.05 / 0.1 / 0.25 / 1.0
    [0.6813, 0.7874, 0.9156, 0.9980],   # 8x8
    [0.5882, 0.6888, 0.8286, 0.9799],   # 80x80
]
PUBLISHED_RD = [
    [0.0552, 0.0475, 0.0292, 0.0015],   # 2x2 vs 8x8
    [0.1583, 0.1431, 0.1050, 0.0185],   # 8x8 vs 80x80
]
BETAS = [0.05, 0.1, 0.25, 1.0]


def test_criterion_1_beta_table(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "table.csv"
    code = main([
        "boost-table", "--image", "1024x1024", "--sizes", "2x2,8x8,80x80",
        "--gamma", "0.25", "--betas", "0.05,0.1,0.25,1.0", "--out", str(out),
    ])
    elapsed = time.time() - t0
    failures = [] if code == 0 else [f"exit code {code}"]

    lines = out.read_text().strip().splitlines()
    sizes = ["2x2", "8x8", "80x80"]
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    for i, size in enumerate(sizes):
        cells = rows[size]
        if float(cells[1]) != PUBLISHED_CS[i]:
            failures.append(f"cs_hat[{size}] = {cells[1]}, published {PUBLISHED_CS[i]}")
        for j, beta in enumerate(BETAS):
            got = float(cells[2 + j])
            if got != PUBLISHED_WEIGHTS[i][j]:
                failures.append(
                    f"weight[{size}, beta={beta}] = {got:.4f}, published {PUBLISHED_WEIGHTS[i][j]:.4f}"
                )
    rd_rows = [ln for ln in lines if ln.startswith("RD ")]
    for i, ln in enumerate(rd_rows):
        cells = ln.split(",")[2:]
        for j, beta in enumerate(BETAS):
            got = float(cells[j].split()[0])
            if got != PUBLISHED_RD[i][j]:
                failures.append(
                    f"RD[pair {i}, beta={beta}] = {got:.4f}, published {PUBLISHED_RD[i][j]:.4f}"
                )
    amp1 = float(rd_rows[0].split(",")[2].split("(")[1].rstrip("x)"))
    amp2 = float(rd_rows[1].split(",")[2].split("(")[1].rstrip("x)"))
    if abs(amp1 - 36.8) > 0.1:
        failures.append(f"amplification {amp1} vs 36.8")
    if abs(amp2 - 8.6) > 0.1:
        failures.append(f"amplification {amp2} vs 8.6")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, "beta-impact weight table reproduced at 4 decimals", failures)


# --- criterion 2: tiling round trip + formula oracle ------------------------

def test_criterion_2_round_trip_and_oracle():
    t0 = time.time()
    rng = make_rng(0xC2)
    failures = []
    checked = 0
    for wo in (32, 56, 224):
        for ho in (32, 56, 224):
            for _ in range(500):
                W = int(rng.integers(1, 601))
                H = int(rng.integers(1, 601))
                ow = oracle_axis(W, wo)
                oh = oracle_axis(H, ho)
                try:
                    grid = plan_grid(W, H, wo, ho)
                except TilingError:
                    if ow is not None and oh is not None:
                        failures.append(f"plan_grid({W},{H},{wo},{ho}) errored, oracle did not")
                    continue
                if ow is None or oh is None:
                    failures.append(f"plan_grid({W},{H},{wo},{ho}) succeeded, oracle errored")
                    continue
                if (grid.n_w, grid.l_w, grid.starts_x, grid.pad_w) != ow:
                    failures.append(f"x-axis plan mismatch at ({W},{wo}): {ow}")
                if (grid.n_h, grid.l_h, grid.starts_y, grid.pad_h) != oh:
                    failures.append(f"y-axis plan mismatch at ({H},{ho}): {oh}")
                x = rng.standard_normal((1, H, W))
                if not np.array_equal(reassemble(split(x, grid), grid), x):
                    failures.append(f"round trip not exact at ({W},{H},{wo},{ho})")
                checked += 1
                if len(failures) > 5:
                    break
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(2, f"exact round trip + oracle match on {checked} random grids "
              f"({elapsed:.1f}s)", failures)


# --- criterion 3: plan spot values ------------------------------------------

def test_criterion_3_plan_spot_values():
    failures = []
    g = plan_grid(800, 224, 224, 224)
    if (g.n_w, g.l_w) != (4, 38):
        failures.append(f"(800, 224) -> ({g.n_w}, {g.l_w}), expected (4, 38)")
    g = plan_grid(1024, 224, 224, 224)
    if (g.n_w, g.l_w) != (5, 27):
        failures.append(f"(1024, 224) -> ({g.n_w}, {g.l_w}), expected (5, 27)")
    g = plan_grid(224, 224, 224, 224)
    if (g.n_w, g.n_h, g.starts_x) != (1, 1, [0]):
        failures.append(f"(224, 224) not a single flush patch: {g}")
    report(3, "tiling plan spot values", failures)


# --- criterion 4: fusion gradient suite --------------------------------------

def test_criterion_4_gradient_suite():
    t0 = time.time()
    failures = []
    worst = 0.0
    for seed in range(20):
        err = gradient_check(seed, (1, 3, 5))
        worst = max(worst, err)
        if err >= 1e-4:
            failures.append(f"seed {seed}: max relative error {err:.3e} >= 1e-4")
    rng = make_rng(0xC4)
    e = rng.standard_normal((2, 3, 5))
    b = rng.standard_normal((2, 3, 5))
    hi = sigmoid(np.full_like(e, 40.0))
    lo = sigmoid(np.full_like(e, -40.0))
    if np.max(np.abs(cross_second(e, b, hi) - 2.0 * e)) >= 1e-9:
        failures.append("gate -> 1 limit broken at logits +40")
    if np.max(np.abs(cross_second(e, b, lo) - b)) >= 1e-9:
        failures.append("gate -> 0 limit broken at logits -40")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(4, f"20-seed gradient check (worst {worst:.2e}) and blend limits "
              f"({elapsed:.1f}s)", failures)


# --- criterion 5: loss scalar oracles + gradient agreement -------------------

def test_criterion_5_loss_oracles():
    failures = []
    pos = BoxSample(H=1024, W=1024, h=8, w=8, y=1, p=0.5, h_hat=8, w_hat=8)
    neg = BoxSample(H=1024, W=1024, h=8, w=8, y=0, p=0.5, h_hat=8, w_hat=8)
    cfg = BoostConfig(alpha=0.25, beta=1.0, gamma=2.0, N=1)

    cs = 8 / 1024
    direct_pos = -(0.25 * (1 - cs) ** 2 * cs * math.log(0.5))
    got = boost_loss([pos], cfg)
    if abs(got - direct_pos) >= 1e-6:
        failures.append(f"positive loss {got!r} vs direct {direct_pos!r}")
    direct_neg = -(0.75 * 0.5**2 * math.log(0.5))
    got = boost_loss([neg], cfg)
    if abs(got - direct_neg) >= 1e-6:
        failures.append(f"negative loss {got!r} vs direct {direct_neg!r}")
    direct_focal = -(0.25 * 0.5**2 * math.log(0.5))
    got = focal_loss([pos], alpha=0.25, gamma=2.0)
    if abs(got - direct_focal) >= 1e-6:
        failures.append(f"focal positive loss {got!r} vs direct {direct_focal!r}")

    rng = make_rng(0xC5)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        hh, ww = (float(v) for v in rng.uniform(1, 1024, 2))
        hp, wp = (float(v) for v in rng.uniform(1, 1024, 2))
        y = int(rng.integers(0, 2))
        p = float(rng.uniform(1e-6 + h, 1 - 1e-6 - h))
        mk = lambda pv: BoxSample(H=1024, W=1024, h=hh, w=ww, y=y, p=pv, h_hat=hp, w_hat=wp)
        cfg = BoostConfig(alpha=0.25, beta=0.25, gamma=2.0, N=1)
        (g,) = boost_loss_grad([mk(p)], cfg)
        fd = (boost_loss([mk(p + h)], cfg) - boost_loss([mk(p - h)], cfg)) / (2 * h)
        rel = abs(g - fd) / max(abs(g), abs(fd), 1.0)
        worst = max(worst, rel)
    if worst >= 1e-6:
        failures.append(f"gradient vs finite differences: worst relative error {worst:.2e}")
    report(5, f"scalar loss oracles and gradient agreement (worst {worst:.1e})", failures)


# --- criterion 6: positive-weight monotonicity -------------------------------

def test_criterion_6_monotonicity():
    failures = []
    for beta in (0.05, 0.1, 0.25, 1.0):
        cfg = BoostConfig(alpha=0.25, beta=beta, gamma=2.0, N=1)
        rng = make_rng(int(beta * 10000))
        violations = 0
        for _ in range(1000):
            a, b = sorted(float(v) for v in rng.uniform(1e-4, 1 - 1e-4, 2))
            if a == b:
                continue
            cs = float(rng.uniform(0.001, 1.0))
            if not positive_weight(b, cs, cfg) < positive_weight(a, cs, cfg):
                violations += 1
            ch = float(rng.uniform(1e-4, 1 - 1e-4))
            if not positive_weight(ch, a, cfg) < positive_weight(ch, b, cfg):
                violations += 1
        if violations:
            failures.append(f"beta={beta}: {violations} violations in 1000 pairs")
    report(6, "positive weight strictly monotone in cs_hat and cs", failures)


# --- criterion 7: harness determinism + tiling value proposition -------------

def test_criterion_7_harness(tmp_path):
    failures = []
    args = ["boost-train", "--loss", "boost", "--alpha", "0.25", "--beta", "0.05",
            "--gamma", "2.0", "--epochs", "200", "--lr", "0.5", "--seed", "42",
            "--n", "5000"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    if main(args + ["--out", str(a)]) != 0 or main(args + ["--out", str(b)]) != 0:
        failures.append("boost-train did not exit 0")
    if a.read_bytes() != b.read_bytes():
        failures.append("seed-42 runs are not byte-identical")

    weights = {}
    for line in a.read_text().splitlines()[2:]:
        name, _, _, w = line.split(",")
        weights[name] = float(w)
    if not weights["very_tiny"] > weights["large"]:
        failures.append(
            f"mean positive weight very_tiny={weights['very_tiny']:.6f} "
            f"not above large={weights['large']:.6f}"
        )

    mlp = FixedSizeMlpWeights.random(56, 56, make_rng(0xC7))
    for hh, ww in ((37, 91), (224, 224), (300, 130)):
        x = make_rng(hh * 1000 + ww).standard_normal((1, hh, ww))
        try:
            out = clap_apply(x, lambda p: fixed_size_mlp(p, mlp), 56, 56)
            if out.shape != x.shape:
                failures.append(f"clap output shape {out.shape} != {x.shape}")
        except Exception as exc:
            failures.append(f"clap_apply failed on {hh}x{ww}: {exc}")
        try:
            fixed_size_mlp(x, mlp)
            failures.append(f"bare operator accepted {hh}x{ww}")
        except DimensionError:
            pass
    for hh, ww in ((55, 56), (56, 57), (112, 112)):
        try:
            fixed_size_mlp(np.zeros((1, hh, ww)), mlp)
            failures.append(f"bare operator accepted {hh}x{ww}")
        except DimensionError:
            pass
    report(7, "deterministic training run, weight ordering, fixed-size lifting", failures)


# --- criterion 8: score-stats contract ---------------------------------------

def test_criterion_8_score_stats(tmp_path, capsys):
    failures = []
    entries = [
        {"image_id": 1, "category_id": 1, "bbox": [0, 0, 4, 9], "score": 0.5},
        {"image_id": 1, "category_id": 2, "bbox": [5, 5, 20, 20], "score": 0.45},
        {"image_id": 2, "category_id": 1, "bbox": [0, 0, 20, 20], "score": 0.39},
        {"image_id": 2, "category_id": 3, "bbox": [0, 0, 100, 49], "score": 0.8},
        {"image_id": 3, "category_id": 1, "bbox": [0, 0, 300, 300], "score": 0.9},
        {"image_id": 3, "category_id": 2, "bbox": [0, 0, 17, 10], "score": 0.6},
    ]
    path = tmp_path / "results.json"
    path.write_text(json.dumps(entries))
    out = tmp_path / "stats.csv"
    code = main(["score-stats", "--in", str(path), "--threshold", "0.4",
                 "--edges", "0,16,32,64,128,256", "--out", str(out)])
    if code != 0:
        failures.append(f"exit code {code}")
    got = out.read_text().splitlines()[2:]
    expected = [
        "[0,16),2,0.550000",     # sizes 6 and sqrt(170)=13.04, scores 0.5 / 0.6
        "[16,32),1,0.450000",    # size 20
        "[32,64),0,nan",
        "[64,128),1,0.800000",   # size 70
        "[128,256),0,nan",
        "[256,inf),1,0.900000",  # size 300; the 0.39 entry is filtered out
    ]
    if got != expected:
        failures.append(f"rows {got} != hand computation {expected}")

    bad = entries + [{"image_id": 9, "category_id": 9, "bbox": [1, 2, 3], "score": 0.5}]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code = main(["score-stats", "--in", str(bad_path)])
    err = capsys.readouterr().err
    if code != 1:
        failures.append(f"malformed input exit code {code}, expected 1")
    if "entry 6" not in err:
        failures.append(f"error lacks entry index: {err.strip()!r}")
    report(8, "score-stats bucket counts, means, and malformed-entry handling", failures)
