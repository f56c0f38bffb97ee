"""Experiment scripts: each runs to completion on a small input and rejects a
bad flag with a usage error; `digest_rows` runs the bit-identity digest."""

import functools
from pathlib import Path

import pytest

from interpreter import fresh_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@functools.cache
def digest_rows(threads):
    """`scripts/digest.py`'s rows at an OpenBLAS thread count, as {kernel: "cases,sha256"};
    run once per thread count per session."""
    proc = fresh_python(str(SCRIPTS / "digest.py"), OPENBLAS_NUM_THREADS=str(threads))
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "kernel,cases,sha256"
    return dict(row.split(",", 1) for row in rows)


# the first field of each row after the header, for a script whose rows are fixed
ROW_NAMES = {
    "ingest_split.py": ["json.load", "ingest_coco_results", "ingest_coco_results_rejected"],
}


@pytest.mark.parametrize("script,args,header", [
    ("tiling_sweep.py", ["--max-width", "64"], "width,n,overlap,stride,last_overlap"),
    ("compare_losses.py", ["--n", "200", "--epochs", "2"],
     "dataset: seed=42 n=200; training: epochs=2 lr=0.5"),
    ("fault_count.py", ["--shape", "1,3,5", "--ops", "3"],
     "call,shape,ops,median_minor_faults,tracemalloc_peak_mib,median_ms"),
    ("ingest_split.py", ["--entries", "50", "--calls", "3"], "stage,entries,calls,median_ms"),
    ("cold_start.py", ["--runs", "1"], "command,runs,median_ms"),
])
def test_script_runs(script, args, header):
    proc = fresh_python(str(SCRIPTS / script), *args)
    assert proc.returncode == 0, proc.stderr
    first, *rows = proc.stdout.splitlines()
    assert first == header
    if script in ROW_NAMES:
        assert [row.split(",")[0] for row in rows] == ROW_NAMES[script]


@pytest.mark.parametrize("script,args", [
    ("tiling_sweep.py", ["--step", "0"]),
    ("tiling_sweep.py", ["--patch", "0"]),
    ("compare_losses.py", ["--betas", ","]),
    ("compare_losses.py", ["--n", "0"]),
    ("compare_losses.py", ["--seed", "-1"]),
])
def test_script_rejects_a_bad_flag_with_a_usage_error(script, args):
    proc = fresh_python(str(SCRIPTS / script), *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"{script}: error: ")
