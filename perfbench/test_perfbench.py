"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CctmStep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def sk():
    return run.import_sodkit()


def digest(obj, h=None) -> str:
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(obj.tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(k.encode())
            digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            digest(v, h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(sk, tmp_path, name):
    def digests(seed):
        wl = WORKLOADS[name](sk, seed, tmp_path)
        return [digest(wl.inputs(i)) for i in range(3)]

    first, again, other = digests(7), digests(7), digests(8)
    assert first == again
    assert first != other


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"]) and len(m["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]+", m["unit"]) and len(m["unit"]) <= 16
    e2e = {"op_p50_ms", "op_p90_ms", "ops_per_s", "setup_s", "peak_rss_mb", "ok_ratio"}
    assert e2e <= set(names)


def test_every_per_layer_metric_comes_from_a_listed_workload():
    assert set(LISTED) <= set(WORKLOADS)
    produced = {n for w in LISTED for n in WORKLOADS[w].layer_names}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_oracle_reproduces_readme_plan():
    readme_row = "800,600,224,224,4,3,38,48,0|186|372|576;0|176|376"
    assert oracles.clap_plan_row(800, 600, 224, 224) == readme_row
    assert oracles.clap_plan_row(300, 600, 224, 224) is None  # ratio in (1, 1.5]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_passes_checks(sk, tmp_path, name):
    wl = WORKLOADS[name](sk, 3, tmp_path)
    tally = run.Tally()
    tally.add(wl.run_checks())
    plain, _ = run.measure(wl, 0.0, tally, min_ops=wl.cycle)
    assert len(plain) == wl.cycle
    assert tally.wrong == 0, tally.first_failures
    # only the invalid invocations of cli-small may fail (known defects)
    assert tally.failed <= (wl.cycle if name == "cli-small" else 0)

    tracer = Tracer()
    plain, traced = run.measure(wl, 0.0, run.Tally(), min_ops=wl.cycle, tracer=tracer)
    layer = run.per_layer(wl, tracer, plain, traced)
    assert set(wl.layer_names) <= set(layer)
    assert all(layer[n] > 0 for n in wl.layer_names if n.endswith(".ms"))


def test_renamed_layer_call_fails_the_traced_run(sk, tmp_path, monkeypatch):
    wl = CctmStep(sk, 3, tmp_path)
    monkeypatch.setattr(wl, "hooks", (*wl.hooks, ("fusion", "no_such_call", "fusion.gone")))
    with pytest.raises(AttributeError):
        run.measure(wl, 0.0, run.Tally(), min_ops=1, tracer=Tracer())


def test_totals_leave_out_calls_under_a_skipped_span():
    tracer = Tracer()
    for outer in ("cli.cctm-check", "cli.reject"):
        with tracer.span(outer), tracer.span("fusion.gradient_check"):
            pass
    assert tracer.totals()["fusion.gradient_check"][2] == 2
    totals = tracer.totals(skip_under=("cli.reject",))
    assert totals["fusion.gradient_check"][2] == 1
    assert totals["cli.reject"][2] == 1


def test_corrupted_output_is_counted(sk, tmp_path, monkeypatch):
    def corrupt(self, op):
        d_e, d_b, grads = real(self, op)
        return d_e * 1.01, d_b, grads  # a 1% error in the input gradient

    real = CctmStep.run
    monkeypatch.setattr(CctmStep, "run", corrupt)
    wl = CctmStep(sk, 3, tmp_path)
    tally = run.Tally()
    plain, _ = run.measure(wl, 0.0, tally, min_ops=3)
    assert tally.failed == tally.attempted == len(plain)
    assert tally.wrong == tally.failed
    assert run.end_to_end(plain, [1.0], 100.0, tally)["ok_ratio"] == 0.0


def test_cold_set_up_runs_in_a_fresh_process():
    assert 0.0 < run.cold_set_up("cli-small", 1) < 60.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", LISTED[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
