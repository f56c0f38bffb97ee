"""Smoke tests: each experiment script runs to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,header", [
    ("tiling_sweep.py", ["--max-width", "64"], "width,n,overlap,stride,last_overlap"),
    ("compare_losses.py", ["--n", "200", "--epochs", "2"],
     "dataset: seed=42 n=200; training: epochs=2 lr=0.5"),
    ("fault_count.py", ["--shape", "1,3,5", "--ops", "3"],
     "call,shape,ops,median_minor_faults,tracemalloc_peak_mib,median_ms"),
    ("train_digest.py", ["--quick"], "cases,sha256"),
    ("ingest_split.py", ["--entries", "50", "--calls", "3"], "stage,entries,calls,median_ms"),
    ("cold_start.py", ["--runs", "1"], "command,runs,median_ms,scipy_load"),
    ("cctm_digest.py", ["--quick"], "cases,sha256"),
])
def test_script_runs(script, args, header):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


def test_cold_start_reports_the_erf_load_of_cctm_check_alone():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cold_start.py"), "--runs", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loads = {row.split(",")[0]: row.split(",")[-1] for row in proc.stdout.splitlines()[1:]}
    assert loads == {"clap-plan": "none", "cctm-check": "erf", "boost-table": "none",
                     "boost-train": "none", "score-stats": "none"}
