"""Command-line front end.

Subcommands: clap-plan, cctm-check, boost-table, boost-train, score-stats.
Every subcommand accepts --config FILE with plain ``key = value`` lines and
--out FILE; command-line flags override file values. Exit codes: 0 success,
1 contract violation (bad arguments, malformed input, sizes too large to
allocate), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import typing
from dataclasses import dataclass, fields

from . import fusion, harness, tiling
from .boost import weight_table
from .errors import EvaluationError, SodkitError, TrainingError, _whole

GRAD_CHECK_TOL = 1e-4


class CliError(SodkitError):
    """Bad command line or config file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass(frozen=True)
class Opt:
    flag: str
    parse: callable
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


def _pair(s):
    """'1024x768' -> (1024.0, 768.0), first extent x second."""
    a, _, b = s.partition("x")
    if not b:
        raise ValueError(f"expected AxB, got {s!r}")
    return float(a), float(b)


def _nonempty(items, s):
    if not items:
        raise ValueError(f"expected a non-empty comma-separated list, got {s!r}")
    return items


def _pairs(s):
    return _nonempty([_pair(p) for p in s.split(",") if p], s)


def floats(s):
    return _nonempty([float(v) for v in s.split(",") if v], s)


def _seed(s):
    """A seed: any non-negative integer, however large."""
    return _whole("seed", int(s), 0, ValueError)


def _ints(s):
    """'1,3,5' -> (1, 3, 5); the command checks the count."""
    return tuple(int(v) for v in s.split(","))


def _load_config(path: str, opts: list[Opt]) -> dict:
    known = {o.dest: o for o in opts}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise CliError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            values[key] = known[key].parse(value.strip())
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
    return values


def _resolve(args, opts: list[Opt]) -> argparse.Namespace:
    merged = {o.dest: o.default for o in opts}
    if args.config:
        merged.update(_load_config(args.config, opts))
    for o in opts:
        if o.dest in args:
            try:
                merged[o.dest] = o.parse(getattr(args, o.dest))
            except ValueError as exc:
                raise CliError(f"{o.flag}: {exc}") from None
    for o in opts:
        if o.required and merged[o.dest] is None:
            raise CliError(f"{o.flag} is required")
    return argparse.Namespace(**merged)


# each handler takes the resolved options and returns its CSV lines and exit code
def _cmd_clap_plan(ns):
    grid = tiling.plan_grid(W=ns.width, H=ns.height, W_o=ns.patch_w, H_o=ns.patch_h)
    return [grid.csv_row()], 0


def _cmd_cctm_check(ns):
    err = fusion.gradient_check(ns.seed, ns.shape)
    ok = err < GRAD_CHECK_TOL
    shape = "x".join(str(v) for v in ns.shape)
    return [f"{ns.seed},{shape},{err:.6e},{'pass' if ok else 'fail'}"], 0 if ok else 2


def _cmd_boost_table(ns):
    img_h, img_w = ns.image
    table = weight_table(ns.sizes, H=img_h, W=img_w, gamma=ns.gamma, betas=ns.betas)
    return table.csv_lines(), 0


def _cmd_boost_train(ns):
    cfg = harness.RunConfig(**{f.name: getattr(ns, f.name) for f in fields(harness.RunConfig)})
    cfg.validate()
    data = harness.synth_dataset(cfg.seed, cfg.n)
    return harness.train_toy(data, cfg).csv_lines(), 0


def _cmd_score_stats(ns):
    dets = harness.ingest_coco_results(getattr(ns, "in"))
    return harness.score_stats(dets, ns.threshold, tuple(ns.edges)).csv_lines(), 0


def _run_config_opts() -> list[Opt]:
    """One flag per RunConfig field, with the field's default and type."""
    types = typing.get_type_hints(harness.RunConfig)
    helps = {"loss": "boost or focal", "n": "synthetic dataset size"}
    return [Opt(f"--{f.name}", _seed if f.name == "seed" else types[f.name], f.default,
                help=helps.get(f.name, "")) for f in fields(harness.RunConfig)]


# each command: its options and the handler that runs on the resolved options
COMMANDS: dict[str, tuple[list[Opt], callable]] = {
    "clap-plan": ([
        Opt("--width", int, required=True, help="input width"),
        Opt("--height", int, required=True, help="input height"),
        Opt("--patch-w", int, required=True, help="patch width"),
        Opt("--patch-h", int, required=True, help="patch height"),
    ], _cmd_clap_plan),
    "cctm-check": ([
        Opt("--seed", _seed, default=0, help="RNG seed"),
        Opt("--shape", _ints, default=(1, 3, 5), help="tensor shape B,C,L"),
    ], _cmd_cctm_check),
    "boost-table": ([
        Opt("--image", _pair, default=(1024.0, 1024.0), help="image size HxW"),
        Opt("--sizes", _pairs, required=True, help="object sizes, e.g. 2x2,8x8"),
        Opt("--gamma", float, default=0.25, help="focusing exponent"),
        Opt("--betas", floats, default=[0.05, 0.1, 0.25, 1.0], help="beta values"),
    ], _cmd_boost_table),
    "boost-train": (_run_config_opts(), _cmd_boost_train),
    "score-stats": ([
        Opt("--in", str, required=True, help="COCO results JSON"),
        Opt("--threshold", float, default=0.4),
        Opt("--edges", floats, default=list(harness.DEFAULT_STAT_EDGES)),
    ], _cmd_score_stats),
}
# options of every command besides --config
_COMMON = [Opt("--out", str, help="write the CSV here instead of stdout")]


@functools.cache
def build_parser() -> _Parser:
    """The whole command-line parser, built once per process: parsing keeps
    no state between calls, so one parser serves every call of main."""
    parser = _Parser(prog="sodkit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (opts, _) in COMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", default=None, help="key = value option file")
        for o in opts + _COMMON:
            sub.add_argument(o.flag, default=argparse.SUPPRESS, help=o.help)
    return parser


def _check_out(path: str | None) -> None:
    """Reject an --out path that cannot name a new or existing file before
    any work is done; the file itself is opened only once the run succeeds,
    so a failed run neither creates nor truncates it."""
    if path is None:
        return
    if not path:
        raise CliError("--out: expected a file path, got ''")
    if os.path.isdir(path):
        raise CliError(f"--out: {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise CliError(f"--out: no directory {parent!r} to write {path!r} in")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        opts, handler = COMMANDS[args.command]
        ns = _resolve(args, opts + _COMMON)
        _check_out(ns.out)
        lines, code = handler(ns)
        with open(ns.out, "w") if ns.out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write("\n".join(lines) + "\n")
        return code
    except (TrainingError, EvaluationError) as exc:
        print(f"sodkit: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's names the array the sizes ask for; Python's own has no text
        print(f"sodkit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (SodkitError, OSError, ValueError) as exc:
        print(f"sodkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
