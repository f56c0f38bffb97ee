"""Sweep the tiling planner across input widths for one patch size.

Prints one CSV row per width: patch count, overlap, stride, and how many
columns the final flush-right patch re-covers. Widths in the infeasible band
(patch < width <= 1.5 * patch) are reported with plan=error.
"""

import argparse

from sodkit.errors import TilingError
from sodkit.tiling import plan_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--patch", type=int, default=224)
    ap.add_argument("--max-width", type=int, default=1400)
    ap.add_argument("--step", type=int, default=16)
    args = ap.parse_args()
    if args.patch < 1 or args.step < 1:
        ap.error("--patch and --step must be >= 1")

    print("width,n,overlap,stride,last_overlap")
    for width in range(args.step, args.max_width + 1, args.step):
        try:
            g = plan_grid(width, args.patch, args.patch, args.patch)
        except TilingError:
            print(f"{width},error,,,")
            continue
        stride = args.patch - g.l_w if g.n_w > 1 else 0
        last = 0
        if g.n_w > 1:
            last = g.starts_x[-2] + g.W_o - g.starts_x[-1]
        print(f"{width},{g.n_w},{g.l_w},{stride},{last}")


if __name__ == "__main__":
    main()
