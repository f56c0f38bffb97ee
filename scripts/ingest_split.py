"""Time the two stages of reading a COCO results file: json.load and the
whole ingest_coco_results call.

Writes one COCO results file of --entries entries to a temporary directory,
made as the benchmark's cli-small workload makes its files (2-decimal boxes
with extents spread log-uniformly over 1-400 px, 4-decimal scores, 20 entries
per image), then times --calls calls of each stage after one warm-up call and
prints the median. The ingest's checks cost the difference of the two rows.
The script uses only `ingest_coco_results`, so it runs unchanged against an
older checkout:

    PYTHONPATH=src python scripts/ingest_split.py --entries 2000 --calls 60
"""

import argparse
import json
import math
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from sodkit.harness import ingest_coco_results


def write_results(path: Path, n: int, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    w = np.round(np.exp(rng.uniform(0.0, math.log(400.0), n)), 2)
    h = np.round(np.exp(rng.uniform(0.0, math.log(400.0), n)), 2)
    xy = np.round(rng.uniform(0.0, 600.0, (n, 2)), 2)
    score = np.round(rng.uniform(0.0, 1.0, n), 4)
    cat = rng.integers(1, 81, n)
    entries = [
        {"image_id": j // 20, "category_id": int(cat[j]),
         "bbox": [float(xy[j, 0]), float(xy[j, 1]), float(w[j]), float(h[j])],
         "score": float(score[j])}
        for j in range(n)
    ]
    path.write_text(json.dumps(entries))


def median_ms(fn, calls: int) -> float:
    fn()  # warm-up: page cache, first-call imports
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def json_load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--entries", type=int, default=2000, help="entries in the file")
    ap.add_argument("--calls", type=int, default=60, help="timed calls per stage")
    args = ap.parse_args()
    if args.entries < 0 or args.calls < 1:
        ap.error("--entries must be >= 0 and --calls >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.json"
        write_results(path, args.entries)
        stages = (("json.load", lambda: json_load(path)),
                  ("ingest_coco_results", lambda: ingest_coco_results(str(path))))
        print("stage,entries,calls,median_ms")
        for name, fn in stages:
            print(f"{name},{args.entries},{args.calls},{median_ms(fn, args.calls):.3f}")


if __name__ == "__main__":
    main()
