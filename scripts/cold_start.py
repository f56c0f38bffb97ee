"""Time each CLI command as a whole fresh process, and say how much of scipy
it loaded.

For each of the five commands, starts --runs fresh interpreters one after
another, never two at once, each running `sodkit.cli.main` once on a small
fixed input, and prints the median wall time from process start to exit.
That time includes the interpreter's start-up and every import the command
makes. `scipy_load` says what of scipy the command had loaded when it
returned: `scipy.special` (the whole package, in `sys.modules`), else `erf`
(the GELU's erf, loaded from its extension module alone, which leaves
`sys.modules` as it was), else `none`. The interpreters see the
environment this script runs in, so the script measures the checkout that
PYTHONPATH names:

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

# runs one command and reports on stderr, after anything the command wrote
# there, what of scipy it loaded
_CHILD = """\
import sys
from sodkit import numeric
from sodkit.cli import main
code = main(sys.argv[1:])
if "scipy.special" in sys.modules:
    print("scipy.special", file=sys.stderr)
elif numeric._erf is not None:
    print("erf", file=sys.stderr)
else:
    print("none", file=sys.stderr)
sys.exit(code)
"""

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


def run_once(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    *errors, load = proc.stderr.splitlines() or [""]
    if proc.returncode != 0 or errors:
        raise SystemExit(f"sodkit {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed, load


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="fresh processes per command")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.json"
        path.write_text(json.dumps(results()))
        print("command,runs,median_ms,scipy_load")
        for name, flags in COMMANDS.items():
            argv = [name, *(f.format(results=path) for f in flags)]
            runs = [run_once(argv) for _ in range(args.runs)]
            ms = statistics.median(t for t, _ in runs) * 1e3
            loads = "|".join(sorted({load for _, load in runs}))
            print(f"{name},{args.runs},{ms:.1f},{loads}")


if __name__ == "__main__":
    main()
