"""Time the stages of reading a COCO results file: json.load, the whole
ingest_coco_results call, and that call on the same file made invalid.

Writes one COCO results file of --entries entries to a temporary directory,
made as the benchmark's cli-small workload makes its files (2-decimal boxes
with extents spread log-uniformly over 1-400 px, 4-decimal scores, 20 entries
per image), and a copy whose last entry has the score 1.5, which the ingest
rejects. It times --calls calls of each stage after one warm-up call and
prints the median. The json.load stage runs with the cyclic garbage
collector paused, as the ingest pauses it, so the ingest's checks cost the
difference of the first two rows; the third is the path that finds the entry
to report. The script pauses the collector itself and uses only
`ingest_coco_results` and `ParseError`, so it runs unchanged against an older
checkout:

    PYTHONPATH=src python scripts/ingest_split.py --entries 2000 --calls 60

and at COCO scale (5,000 images of 100 detections):

    PYTHONPATH=src python scripts/ingest_split.py --entries 300000 --calls 3
"""

import argparse
import gc
import json
import math
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from sodkit.errors import ParseError
from sodkit.harness import ingest_coco_results


def results(n: int, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    w = np.round(np.exp(rng.uniform(0.0, math.log(400.0), n)), 2)
    h = np.round(np.exp(rng.uniform(0.0, math.log(400.0), n)), 2)
    xy = np.round(rng.uniform(0.0, 600.0, (n, 2)), 2)
    score = np.round(rng.uniform(0.0, 1.0, n), 4)
    cat = rng.integers(1, 81, n)
    return [
        {"image_id": j // 20, "category_id": int(cat[j]),
         "bbox": [float(xy[j, 0]), float(xy[j, 1]), float(w[j]), float(h[j])],
         "score": float(score[j])}
        for j in range(n)
    ]


def median_ms(fn, calls: int) -> float:
    fn()  # warm-up: page cache, first-call imports
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def json_load(path: Path) -> None:
    """json.load with the collector paused, and resumed only if it ran on
    entry; the parsed list is dropped before it resumes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            json.load(fh)
    finally:
        if enabled:
            gc.enable()


def ingest_rejected(path: Path) -> None:
    try:
        ingest_coco_results(str(path))
    except ParseError:
        return
    raise SystemExit(f"{path} was accepted, but its last score is 1.5")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--entries", type=int, default=2000, help="entries in the file")
    ap.add_argument("--calls", type=int, default=60, help="timed calls per stage")
    args = ap.parse_args()
    if args.entries < 1 or args.calls < 1:
        ap.error("--entries and --calls must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        path, bad = Path(tmp) / "results.json", Path(tmp) / "rejected.json"
        entries = results(args.entries)
        path.write_text(json.dumps(entries))
        entries[-1]["score"] = 1.5
        bad.write_text(json.dumps(entries))
        stages = (("json.load", lambda: json_load(path)),
                  ("ingest_coco_results", lambda: ingest_coco_results(str(path))),
                  ("ingest_coco_results_rejected", lambda: ingest_rejected(bad)))
        print("stage,entries,calls,median_ms")
        for name, fn in stages:
            print(f"{name},{args.entries},{args.calls},{median_ms(fn, args.calls):.3f}")


if __name__ == "__main__":
    main()
