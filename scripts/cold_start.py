"""Time each CLI command as a whole fresh process.

For each of the five commands, starts --runs fresh interpreters one after
another, never two at once, each running `python -m sodkit.cli` once on a
small fixed input, and prints the median wall time from process start to
exit. That time includes the interpreter's start-up and every import the
command makes. The interpreters see the environment this script runs in,
so the script measures the checkout that PYTHONPATH names:

    PYTHONPATH=src python scripts/cold_start.py --runs 5
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "clap-plan": ["--width", "800", "--height", "600", "--patch-w", "224", "--patch-h", "224"],
    "cctm-check": ["--seed", "0", "--shape", "1,3,5"],
    "boost-table": ["--sizes", "2x2,8x8,80x80"],
    "boost-train": ["--n", "200", "--epochs", "2"],
    "score-stats": ["--in", "{results}"],
}


def results() -> list[dict]:
    """20 detections, one per 20 px of box side."""
    return [{"image_id": 1, "category_id": 1, "bbox": [0.0, 0.0, 20.0 * k, 20.0 * k],
             "score": 0.05 * k} for k in range(1, 21)]


def run_once(argv: list[str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sodkit.cli", *argv],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stderr:
        raise SystemExit(f"sodkit {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="fresh processes per command")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.json"
        path.write_text(json.dumps(results()))
        print("command,runs,median_ms")
        for name, flags in COMMANDS.items():
            argv = [name, *(f.format(results=path) for f in flags)]
            ms = statistics.median(run_once(argv) for _ in range(args.runs)) * 1e3
            print(f"{name},{args.runs},{ms:.1f}")


if __name__ == "__main__":
    main()
