"""One sha256 per kernel over full-precision results, for bit-identity checks.

Prints `kernel,cases,sha256`, then one row per kernel:

- `cctm`: three consecutive forward and backward steps at each shape of a
  fixed grid, each step on a fresh random problem, hashing the bytes of
  `cctm_forward`'s output and of every `cctm_backward` result (`d_e`, `d_b`
  and each parameter gradient); then the `repr` of `gradient_check` for a
  grid of seeds x small shapes. Consecutive steps at one shape reuse the maps
  the step before freed, so the digest covers freshly allocated and reused
  buffers alike. 4 shapes x 3 steps + 10 seeds x 3 shapes = 42 cases.
- `train`: the `repr` of every toy-training run's final loss and per-bucket
  counts, recalls and mean positive weights, over 5 seeds x 4 loss settings
  x 3 dataset sizes x 3 epoch counts = 180 cases.

Two versions of a kernel that print the same row produced the same bits on
every case of its grid. The script uses only public names that older
checkouts also have, so it runs unchanged against one:

    PYTHONPATH=src python scripts/digest.py
    PYTHONPATH=/path/to/other/checkout/src python scripts/digest.py

OpenBLAS runs one thread unless OPENBLAS_NUM_THREADS is set. The `train` row
does not depend on the thread count; the `cctm` row's `[2, 128, 500]` steps
do, so compare `cctm` rows taken at one count.
"""

import argparse
import hashlib
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads

from sodkit import make_rng
from sodkit.fusion import CCTMParams, cctm_backward, cctm_forward, gradient_check
from sodkit.harness import RunConfig, synth_dataset, train_toy

CCTM_SHAPES = ((1, 3, 5), (2, 16, 1024), (2, 64, 1024), (2, 128, 500))
CCTM_STEPS = 3
CHECK_SEEDS = range(10)
CHECK_SHAPES = ((1, 3, 5), (2, 2, 3), (1, 4, 2))
TRAIN_SEEDS = (0, 1, 7, 42, 99)
TRAIN_SETTINGS = (("boost", 1.0), ("focal", 1.0), ("boost", 0.05), ("focal", 0.3))
TRAIN_SIZES = (1, 37, 2000)
TRAIN_EPOCHS = (0, 1, 60)


def cctm_records():
    """The bytes the CCTM grid hashes, one string per case."""
    for shape in CCTM_SHAPES:
        rng = make_rng(0)
        p = CCTMParams.random(shape[1], rng)
        for step in range(CCTM_STEPS):
            E, B, G = (rng.standard_normal(shape) for _ in range(3))
            out, acts = cctm_forward(E, B, p)
            d_e, d_b, grads = cctm_backward(acts, p, G)
            yield f"{shape} step {step}\n".encode() + b"".join(
                f"{a.shape} {a.dtype}\n".encode() + a.tobytes()
                for a in (out, d_e, d_b, grads.to_vector()))
    for seed in CHECK_SEEDS:
        for shape in CHECK_SHAPES:
            yield f"{seed} {shape}: {gradient_check(seed, shape)!r}\n".encode()


def train_records():
    """The bytes the toy-trainer grid hashes, one string per case."""
    for seed in TRAIN_SEEDS:
        for loss, beta in TRAIN_SETTINGS:
            for n in TRAIN_SIZES:
                for epochs in TRAIN_EPOCHS:
                    cfg = RunConfig(loss=loss, beta=beta, epochs=epochs, seed=seed, n=n)
                    m = train_toy(synth_dataset(seed, n), cfg)
                    yield (f"{seed} {loss} {beta!r} {n} {epochs}: {m.final_loss!r} "
                           f"{m.bucket_counts!r} {m.bucket_recall!r} "
                           f"{m.bucket_mean_weight!r}\n").encode()


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    print("kernel,cases,sha256")
    for kernel, records in (("cctm", cctm_records()), ("train", train_records())):
        digest = hashlib.sha256()
        cases = 0
        for record in records:
            digest.update(record)
            cases += 1
        print(f"{kernel},{cases},{digest.hexdigest()}")


if __name__ == "__main__":
    main()
