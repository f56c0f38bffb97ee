"""Experiment scripts: each runs to completion on a small input and rejects a
bad flag with a usage error; `digest_rows` runs the bit-identity digest."""

import functools
import os
from pathlib import Path

import pytest

from interpreter import fresh_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


# the CPUs this process may use
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@functools.cache
def digest_rows(threads, cpu=None):
    """`scripts/digest.py`'s rows at an OpenBLAS thread count, as {kernel: "cases,sha256"},
    in a child that may use only CPU cpu if one is given; run once per
    arguments per session."""
    script = str(SCRIPTS / "digest.py")
    args = [script] if cpu is None else ["-c", (
        f"import os, runpy, sys; os.sched_setaffinity(0, {{{cpu}}}); sys.argv = [{script!r}]; "
        f"runpy.run_path({script!r}, run_name='__main__')")]
    proc = fresh_python(*args, OPENBLAS_NUM_THREADS=str(threads))
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "kernel,cases,sha256"
    return dict(row.split(",", 1) for row in rows)


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
    assert proc.stdout.splitlines()[0] == header


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


@pytest.mark.skipif(len(CPUS) < 2, reason="only one CPU is available")
def test_digest_rows_do_not_depend_on_the_cpus_the_process_may_use():
    # one CPU gives the serial GELU, and more give the shared one
    assert digest_rows(1, cpu=CPUS[0]) == digest_rows(1)
