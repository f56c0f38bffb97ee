"""One sha256 over full-precision CCTM results, for bit-identity checks.

Runs three consecutive forward and backward steps at each shape of a fixed
grid, each step on a fresh random problem, and hashes the bytes of
`cctm_forward`'s output and of every `cctm_backward` result (`d_e`, `d_b`
and each parameter gradient); then hashes the `repr` of `gradient_check`
for a grid of seeds x small shapes. Consecutive steps at one shape reuse the
maps the step before freed, so the digest covers freshly allocated and
reused buffers alike. Two versions of the fusion block that print the same
digest produced the same bits on every case of the grid. The script uses
only `CCTMParams`, `cctm_forward`, `cctm_backward`, `gradient_check` and
`make_rng`, so it runs unchanged against an older checkout:

    PYTHONPATH=src python scripts/cctm_digest.py
    PYTHONPATH=/path/to/other/checkout/src python scripts/cctm_digest.py

The full grid is 4 shapes x 3 steps plus 10 seeds x 3 gradient-check shapes
= 42 cases; --quick runs a 9-case subset for a smoke test. OpenBLAS runs one
thread unless OPENBLAS_NUM_THREADS is set. The `[2, 128, 500]` steps change
their last bits with the thread count, so compare digests taken at one count.
"""

import argparse
import hashlib
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads

from sodkit import make_rng
from sodkit.fusion import CCTMParams, cctm_backward, cctm_forward, gradient_check

STEPS = 3
GRID = {
    "shapes": ((1, 3, 5), (2, 16, 1024), (2, 64, 1024), (2, 128, 500)),
    "check_seeds": range(10),
    "check_shapes": ((1, 3, 5), (2, 2, 3), (1, 4, 2)),
}
QUICK_GRID = {"shapes": ((1, 3, 5), (2, 16, 1024)), "check_seeds": range(3),
              "check_shapes": ((1, 3, 5),)}


def step_arrays(p, rng, shape):
    """The output and every gradient of one step on a fresh random problem."""
    E, B, G = (rng.standard_normal(shape) for _ in range(3))
    out, acts = cctm_forward(E, B, p)
    d_e, d_b, grads = cctm_backward(acts, p, G)
    return out, d_e, d_b, grads.to_vector()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="run the 9-case subset")
    args = ap.parse_args()

    grid = QUICK_GRID if args.quick else GRID
    digest = hashlib.sha256()
    cases = 0
    for shape in grid["shapes"]:
        rng = make_rng(0)
        p = CCTMParams.random(shape[1], rng)
        for step in range(STEPS):
            digest.update(f"{shape} step {step}\n".encode())
            for a in step_arrays(p, rng, shape):
                digest.update(f"{a.shape} {a.dtype}\n".encode())
                digest.update(a.tobytes())
            cases += 1
    for seed in grid["check_seeds"]:
        for shape in grid["check_shapes"]:
            digest.update(f"{seed} {shape}: {gradient_check(seed, shape)!r}\n".encode())
            cases += 1
    print("cases,sha256")
    print(f"{cases},{digest.hexdigest()}")


if __name__ == "__main__":
    main()
