"""Compare boost and focal training on the synthetic size-stratified set.

Runs one focal baseline and one boost run per beta, all from the same seed,
and prints per-bucket recall and mean positive-term weight side by side.
Longer runs (--epochs 2000+) let the weaker boost positives climb past the
0.5 recall threshold; the weight columns show the size re-weighting itself.
"""

import argparse

from sodkit.errors import SodkitError
from sodkit.harness import BUCKET_NAMES, RunConfig, synth_dataset, train_toy


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--lr", type=float, default=0.5)
    ap.add_argument("--betas", default="0.05,0.1,0.25,1.0")
    args = ap.parse_args()
    try:
        runs = [("focal", 1.0)] + [("boost", float(b)) for b in args.betas.split(",")]
        configs = [RunConfig(loss=loss, beta=beta, epochs=args.epochs, lr=args.lr,
                             seed=args.seed, n=args.n) for loss, beta in runs]
        for cfg in configs:
            cfg.validate()
    except (ValueError, SodkitError) as exc:
        ap.error(str(exc))

    data = synth_dataset(args.seed, args.n)
    print(f"dataset: seed={args.seed} n={args.n}; training: epochs={args.epochs} lr={args.lr}")
    header = f"{'run':<14}" + "".join(f"{name:>12}" for name in BUCKET_NAMES)
    print("\nrecall @ 0.5")
    print(header)
    weight_rows = []
    for cfg in configs:
        m = train_toy(data, cfg)
        label = cfg.loss if cfg.loss == "focal" else f"{cfg.loss} b={cfg.beta:g}"
        print(f"{label:<14}" + "".join(f"{m.bucket_recall[n]:>12.3f}" for n in BUCKET_NAMES))
        weight_rows.append((label, m.bucket_mean_weight))
    print("\nmean positive-term weight")
    print(header)
    for label, weights in weight_rows:
        print(f"{label:<14}" + "".join(f"{weights[n]:>12.5f}" for n in BUCKET_NAMES))


if __name__ == "__main__":
    main()
