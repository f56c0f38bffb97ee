"""sodkit benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload cctm-step --seed 1 --seconds 15 --trace 0

Workloads: cctm-step, boost-train, cli-small (see workloads.py for what one
op is and why each exists). One client in one process runs one op at a time
until the ops' summed time reaches --seconds, at least MIN_OPS ops are done
and the input rotation is at a whole cycle. Every op's output is checked.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
runs each op untraced and traced, and prints the per-layer metrics, with the
spans written to .perfbench/trace-<workload>-seed<n>.jsonl. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import os

# One BLAS thread: on a 2-core machine shared with other work, OpenBLAS's
# default of 2 threads made the small trainer matmuls 4-6x slower and the
# run-to-run spread several times wider. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

import envinfo
from tracing import Tracer
from workloads import ROOT, WARMUP, WORKLOADS, Check, CctmStep

MIN_OPS = 100  # p90 needs at least 10 samples beyond it
WALL_CAP = 6  # stop at this multiple of --seconds of wall time, even short of MIN_OPS
COLD_SETUPS = 6  # set-ups in fresh processes per untraced run, besides the run's own
LAYERS = ("tiling", "fusion", "numeric", "boost", "harness", "cli")
OUT_DIR = ROOT / ".perfbench"


def import_sodkit() -> types.SimpleNamespace:
    """Import sodkit's layer modules."""
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"sodkit.{m}") for m in LAYERS}
    )


def set_up(cls, seed: int, workdir: Path):
    """Import sodkit, build the workload and run its untimed warm-up op.

    Returns the workload and the set-up time: the import plus the warm-up
    op, without the benchmark's own input generation. It is called before
    anything has imported sodkit, so the time includes importing sodkit's
    dependencies (numpy aside, which the benchmark imports first) and the
    first-call costs of the warm-up op."""
    t0 = perf_counter()
    sk = import_sodkit()
    t1 = perf_counter()
    wl = cls(sk, seed, workdir)
    op = wl.inputs(WARMUP)
    t2 = perf_counter()
    wl.run(op)
    return wl, t1 - t0 + perf_counter() - t2


def cold_set_up(workload: str, seed: int) -> float:
    """set_up's time in a fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Raised:
    def __init__(self, exc):
        self.exc = exc


def timed(wl, op):
    t0 = perf_counter()
    try:
        result = wl.run(op)
    except Exception as exc:  # a raising op is a failed op
        result = Raised(exc)
    return perf_counter() - t0, result


class Tally:
    """Checked invocations, failures, and the failures on valid input."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.first_failures: list[str] = []

    def add(self, checks: list[Check]) -> None:
        for c in checks:
            self.attempted += 1
            if not c.ok:
                self.failed += 1
                self.wrong += c.valid
                if len(self.first_failures) < 5:
                    self.first_failures.append(c.label)


def checked(wl, op, result) -> list[Check]:
    if isinstance(result, Raised):
        return [Check(f"{wl.name} raised {type(result.exc).__name__}", True, False)]
    return wl.check(op, result)


def measure(wl, seconds: float, tally: Tally, min_ops: int = MIN_OPS, tracer=None,
            setups=None):
    """Closed loop. Returns the op times (s); with a tracer, the untraced and
    traced times of each op, run in alternating order on the same input.

    With a list `setups`, appends COLD_SETUPS set-up times measured in fresh
    processes, started between ops at even steps of the ops' summed time, so
    that they sample the shared host over the same stretch as the ops."""
    plain, traced = [], []
    hooks = [(getattr(wl.sk, m), attr, name) for m, attr, name in wl.hooks]
    busy, i, cold, start = 0.0, 0, 0, perf_counter()
    while True:
        if setups is not None and cold < COLD_SETUPS and busy >= cold * seconds / COLD_SETUPS:
            setups.append(cold_set_up(wl.name, wl.seed))
            cold += 1
        enough = len(plain) >= min_ops or perf_counter() - start >= WALL_CAP * seconds
        if i and i % wl.cycle == 0 and busy >= seconds and enough:
            break
        op = wl.inputs(i)
        if tracer is None:
            t, result = timed(wl, op)
            tally.add(checked(wl, op, result))
            plain.append(t)
            busy += t
        else:
            for traced_run in ((False, True) if i % 2 else (True, False)):
                if traced_run:
                    tracer.op = i
                    untraced_span, wl.span = wl.span, tracer.span
                    with tracer.patched(hooks), tracer.span(wl.name):
                        t, result = timed(wl, op)
                    wl.span = untraced_span
                    traced.append(t)
                    if not isinstance(result, Raised):
                        wl.probe(op, result, tracer)
                else:
                    t, result = timed(wl, op)
                    plain.append(t)
                tally.add(checked(wl, op, result))
                busy += t
        del op, result
        i += 1
    return plain, traced


def end_to_end(times, setups: list[float], rss_mb: float, tally: Tally) -> dict:
    ms = np.asarray(times) * 1e3
    return {
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_p90_ms": float(np.percentile(ms, 90)),
        "ops_per_s": len(times) / float(np.sum(times)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }


def per_layer(wl, tracer: Tracer, plain, traced) -> dict:
    n = len(traced)
    totals = tracer.totals(skip_under=wl.untallied)
    ms = {name: t[0] * 1e3 / n for name, t in totals.items()}
    calls = {name: t[2] / n for name, t in totals.items()}
    out = {f"{name}.ms": v for name, v in ms.items()}
    cli_self = [t[1] for name, t in totals.items() if name.startswith("cli.")]
    if cli_self:
        out["cli.overhead_ms"] = sum(cli_self) * 1e3 / n
    out.update(wl.layer_metrics(ms, calls, n))
    out["trace.overhead_ratio"] = float(np.median(traced) / np.median(plain) - 1.0)
    return out


def work_per_op() -> dict:
    """Computed FLOPs and bytes behind the gflops_per_s metric."""
    return {
        "cctm-step": {
            "flop_per_op": CctmStep.flop_per_op(),
            "input_bytes_per_op": 3 * 8 * int(np.prod(CctmStep.SHAPE)),
            "note": "channel maps only; activation bytes are fusion.activations.mb",
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the set-up time of this fresh process and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sodkit" / "__init__.py").is_file():
        print(f"perfbench: no sodkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s = set_up(WORKLOADS[args.workload], args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        tally = Tally()
        tracer = Tracer() if args.trace else None
        setups = None if tracer else [setup_s]
        min_ops = MIN_OPS // 4 if tracer else MIN_OPS
        plain, traced = measure(wl, args.seconds, tally, min_ops, tracer, setups)
        # before the once-per-run checks, whose inputs may be larger than an op's
        rss_mb = peak_rss_mb()
        tally.add(wl.run_checks())
        env = envinfo.environment(ROOT)
        env["work"] = work_per_op()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = end_to_end(plain, setups, rss_mb, tally)
        wanted = spec["end_to_end"]
        produced = [m["name"] for m in wanted]
    else:
        values = per_layer(wl, tracer, plain, traced)
        wanted = spec["per_layer"]
        produced = wl.layer_names
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed, "env": env})
    missing = [name for name in produced if name not in values]
    if missing:
        print(f"perfbench: {args.workload} measured no {missing}; a traced call was "
              "renamed or is no longer made", file=sys.stderr)
        return 1
    # a listed metric of a layer that this workload does not use reads 0
    metrics = {
        m["name"]: {"value": float(values[m["name"]]) if m["name"] in produced else 0.0,
                    "unit": m["unit"]}
        for m in wanted
    }

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: closed loop, 1 client, "
          f"{len(plain)} untraced + {len(traced)} traced ops; {tally.attempted} invocations "
          f"checked, {tally.failed} failed (failed_ratio {tally.failed / tally.attempted:.4f}), "
          f"{tally.wrong} on valid input")
    if setups:
        print(f"# setup_s is the median of {len(setups)} set-ups, {COLD_SETUPS} of them in "
              f"fresh processes: {[round(s, 4) for s in setups]}")
    if tally.first_failures:
        print(f"# first failures: {tally.first_failures}")
    for name, m in metrics.items():
        print(f"# {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
