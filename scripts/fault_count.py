"""Count the minor page faults and traced allocation peak of one CCTM step.

For one random problem of the given shape, runs cctm_forward then
cctm_backward --ops times after 3 warm-up ops, and prints, for each of the
two calls, the median number of minor page faults per op (the difference of
getrusage(RUSAGE_SELF).ru_minflt around the call), the peak of the memory
that tracemalloc traces during one further call, and the median wall time
per op, taken around the same calls as the faults, so that each time comes
with its fault count. numpy reports its data buffers to tracemalloc, so the
peak repeats exactly from run to run, unlike faults or time.

The process runs with the allocator's default settings. Before each op,
glibc's malloc_trim(0) hands the free pages that earlier ops left in the heap
back to the kernel, as the benchmark's op cycle happens to do, so that the
script's own allocation history does not decide how many of them a call
finds. Where malloc_trim is missing (not glibc) the ops run without it.

Every figure is that of a warm step. The maps of 256 KiB and more that the
warm-up ops freed wait on sodkit's free list, which malloc_trim does not
reach, so each measured call, the traced one too, builds its maps in pages it
has already touched. At 2,64,1024 a call reads a few dozen faults and a
traced peak under 0.3 MiB, where a cold step, which finds the list empty,
takes about 3,900 faults and 15.04 MiB in the forward (4,670 and 18.04 MiB
when the forward held 17 maps) and about 800 faults and 5.26 MiB in the
backward.

    python scripts/fault_count.py --shape 2,64,1024 --ops 30
"""

import os

# one BLAS thread unless the caller says otherwise, as in perfbench; set
# before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import resource
import statistics
import time
import tracemalloc

from sodkit import make_rng
from sodkit.fusion import CCTMParams, cctm_backward, cctm_forward

WARMUP = 3
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def _mark() -> tuple[float, int]:
    """The time in ms and the process's minor-fault count."""
    return time.perf_counter() * 1e3, resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _traced_peak(fn):
    """fn()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--shape", default="2,64,1024", help="B,C,L")
    ap.add_argument("--ops", type=int, default=30)
    args = ap.parse_args()
    try:
        shape = tuple(int(v) for v in args.shape.split(","))
    except ValueError:
        shape = ()
    if len(shape) != 3 or min(shape) < 1 or args.ops < 1:
        ap.error("--shape needs three positive extents and --ops a positive count")

    rng = make_rng(0)
    p = CCTMParams.random(shape[1], rng)
    E, B, G = (rng.standard_normal(shape) for _ in range(3))

    # per call, the (ms, faults) of each measured op
    costs = {"cctm_forward": [], "cctm_backward": []}
    for i in range(WARMUP + args.ops):
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)
        t0, f0 = _mark()
        _, acts = cctm_forward(E, B, p)
        t1, f1 = _mark()
        grads = cctm_backward(acts, p, G)
        t2, f2 = _mark()
        del acts, grads
        if i >= WARMUP:
            costs["cctm_forward"].append((t1 - t0, f1 - f0))
            costs["cctm_backward"].append((t2 - t1, f2 - f1))

    (_, acts), fwd_peak = _traced_peak(lambda: cctm_forward(E, B, p))
    _, bwd_peak = _traced_peak(lambda: cctm_backward(acts, p, G))

    print("call,shape,ops,median_minor_faults,tracemalloc_peak_mib,median_ms")
    label = "x".join(map(str, shape))
    for name, peak in (("cctm_forward", fwd_peak), ("cctm_backward", bwd_peak)):
        ms = statistics.median(c[0] for c in costs[name])
        faults = statistics.median(c[1] for c in costs[name])
        print(f"{name},{label},{args.ops},{faults:g},{peak / 2**20:.2f},{ms:.3f}")


if __name__ == "__main__":
    main()
