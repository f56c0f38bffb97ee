"""One sha256 over full-precision toy-trainer results, for bit-identity checks.

Trains on a fixed grid of seeds x loss settings x dataset sizes x epoch
counts and hashes the `repr` of every run's final loss and per-bucket
counts, recalls and mean positive weights. Two versions of the trainer that
print the same digest produced the same bits on every case of the grid.
The script uses only `synth_dataset`, `train_toy` and `RunConfig`, so it runs
unchanged against an older checkout:

    PYTHONPATH=src python scripts/train_digest.py
    PYTHONPATH=/path/to/other/checkout/src python scripts/train_digest.py

The full grid is 5 seeds x 4 settings x 3 sizes x 3 epoch counts = 180
cases; --quick runs a 16-case subset for a smoke test. OpenBLAS runs one
thread unless OPENBLAS_NUM_THREADS is set, the faster setting at these sizes.
"""

import argparse
import hashlib
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads

from sodkit.harness import RunConfig, synth_dataset, train_toy

SETTINGS = (("boost", 1.0), ("focal", 1.0), ("boost", 0.05), ("focal", 0.3))
GRID = {"seeds": (0, 1, 7, 42, 99), "sizes": (1, 37, 2000), "epochs": (0, 1, 60)}
QUICK_GRID = {"seeds": (0,), "sizes": (1, 37), "epochs": (0, 1)}


def case_record(seed: int, loss: str, beta: float, n: int, epochs: int) -> str:
    cfg = RunConfig(loss=loss, beta=beta, epochs=epochs, seed=seed, n=n)
    m = train_toy(synth_dataset(seed, n), cfg)
    return (f"{seed} {loss} {beta!r} {n} {epochs}: {m.final_loss!r} {m.bucket_counts!r} "
            f"{m.bucket_recall!r} {m.bucket_mean_weight!r}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="run the 16-case subset")
    args = ap.parse_args()

    grid = QUICK_GRID if args.quick else GRID
    digest = hashlib.sha256()
    cases = 0
    for seed in grid["seeds"]:
        for loss, beta in SETTINGS:
            for n in grid["sizes"]:
                for epochs in grid["epochs"]:
                    digest.update(case_record(seed, loss, beta, n, epochs).encode())
                    cases += 1
    print("cases,sha256")
    print(f"{cases},{digest.hexdigest()}")


if __name__ == "__main__":
    main()
