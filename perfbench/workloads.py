"""The closed-loop workloads: one client, one process, one op at a time.

Each workload generates its inputs from the run seed and the op index, outside
the timed region, and holds at most one op's inputs. `run` is the timed op;
`check` compares its output against an independent reference from
`oracles`; `probe` adds untimed per-layer measurements in the traced run.
The package is driven only from outside: through `cli.main(argv)` in-process
and through the public functions of its modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "data"
WARMUP = 2**31  # op index of the untimed warm-up input


def op_rng(seed: int, i: int, stream: int = 0) -> np.random.Generator:
    """Generator for op i of a run: depends on nothing but (seed, i, stream)."""
    return np.random.Generator(np.random.PCG64([seed, i, stream]))


@dataclass
class Check:
    label: str
    valid: bool  # valid input, so a failure means a wrong output
    ok: bool


@dataclass
class Call:
    code: int | None
    out: str
    exc: Exception | None


def invoke(main, argv: list[str]) -> Call:
    """One in-process CLI invocation with stdout captured."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception as exc:  # an escaped exception is a failed invocation
        return Call(None, out.getvalue(), exc)
    return Call(code, out.getvalue(), None)


_NO_SPAN = contextlib.nullcontext()


def _no_span(name):
    return _NO_SPAN


class Workload:
    name = ""
    cycle = 1  # inputs rotate with this period; a run ends on a whole cycle
    hooks: tuple = ()  # (module, attribute, span name) traced inside the op
    layer_names: tuple = ()  # the per-layer metrics the traced run must produce
    untallied: tuple = ()  # spans whose nested layer calls the per-layer totals leave out

    def __init__(self, sk, seed: int, workdir: Path):
        self.sk = sk
        self.seed = seed
        self.workdir = workdir
        self.span = _no_span  # Tracer.span in the traced run
        self.tally = defaultdict(float)  # per-layer counts, traced ops only

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> list[Check]:
        raise NotImplementedError

    def run_checks(self) -> list[Check]:
        """Untimed checks made once per run."""
        return []

    def probe(self, op, result, tracer) -> None:
        """Untimed per-layer measurements after a traced op."""

    def layer_metrics(self, ms: dict, calls: dict, n_ops: int) -> dict:
        return {}


class CctmStep(Workload):
    """One op: cctm_forward then cctm_backward on E, B and an upstream
    gradient of shape [2, 64, 1024] (a 32x32-token map), with parameters
    from CCTMParams.random(64) fixed for the run.

    Why: the FLOP-bound channel maps (einsum at the seed commit) dominate;
    tiling and the trainer sit idle. This is where moving the fusion maps
    onto BLAS shows.
    """

    name = "cctm-step"
    SHAPE = (2, 64, 1024)
    hooks = (
        ("fusion", "cctm_forward", "fusion.cctm_forward"),
        ("fusion", "cctm_backward", "fusion.cctm_backward"),
    )
    BLOCKS = ("gate_first", "cross_first", "grn", "cross_gate", "cross_second")
    ELEMENTWISE = ("gelu", "gelu_grad", "sigmoid")
    layer_names = (
        "fusion.cctm_forward.ms", "fusion.cctm_backward.ms",
        *(f"fusion.{b}.ms" for b in BLOCKS), *(f"numeric.{f}.ms" for f in ELEMENTWISE),
        "fusion.gflop", "fusion.gflops_per_s", "fusion.activations.mb", "trace.overhead_ratio",
    )

    def __init__(self, sk, seed, workdir):
        super().__init__(sk, seed, workdir)
        self.params = sk.fusion.CCTMParams.random(self.SHAPE[1], op_rng(seed, 0, 1))

    @classmethod
    def flop_per_op(cls) -> int:
        """Channel maps only (matmul-equivalent; elementwise work not counted):
        5 in the forward (FC and two 2-layer MLPs), 10 in the backward (input
        and weight gradient of each)."""
        b, c, length = cls.SHAPE
        return 15 * 2 * b * c * c * length

    def inputs(self, i):
        E, B, G = op_rng(self.seed, i).standard_normal((3, *self.SHAPE))
        return i, E, B, G

    def run(self, op):
        # returns only the gradients, so that the forward's activations are
        # freed before the check runs its own forwards (peak RSS stays the op's)
        _, E, B, G = op
        fusion = self.sk.fusion
        _, acts = fusion.cctm_forward(E, B, self.params)
        return fusion.cctm_backward(acts, self.params, G)

    def check(self, op, result):
        i, E, B, G = op
        d_e, d_b, grads = result
        err = oracles.cctm_directional_error(
            self.sk.fusion.cctm_forward, E, B, self.params, G, d_e, d_b, grads,
            op_rng(self.seed, i, 2),
        )
        return [Check("cctm directional derivative", True, err < oracles.FD_TOL)]

    def probe(self, op, result, tracer):
        _, E, B, _ = op
        f, num, p = self.sk.fusion, self.sk.numeric, self.params
        with tracer.span("fusion.gate_first"):
            e_prime = f.gate_first(E, p)
        with tracer.span("fusion.cross_first"):
            e1 = f.cross_first(E, B, e_prime)
        with tracer.span("fusion.grn"):
            f.grn(e1, p.grn_gamma, p.grn_beta, p.grn_eps)
        with tracer.span("fusion.cross_gate"):
            gate = f.cross_gate(e1, B, p)
        with tracer.span("fusion.cross_second"):
            f.cross_second(e1, B, gate)
        for name in self.ELEMENTWISE:
            fn = getattr(num, name)
            with tracer.span(f"numeric.{name}"):
                fn(E)
        self.tally["activation_bytes"] += _nbytes(f.cctm_forward(E, B, p)[1])

    def layer_metrics(self, ms, calls, n_ops):
        gflop = self.flop_per_op() / 1e9
        busy = ms["fusion.cctm_forward"] + ms["fusion.cctm_backward"]
        return {
            "fusion.gflop": gflop,
            "fusion.gflops_per_s": gflop / (busy / 1e3),
            "fusion.activations.mb": self.tally["activation_bytes"] / n_ops / 1e6,
        }


def _nbytes(obj, seen=None) -> int:
    """Bytes of the distinct arrays reachable through dataclass fields."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, k), seen) for k in obj.__dataclass_fields__)
    return 0


BUCKETS = ("very_tiny", "tiny", "small", "medium", "large")


class BoostTrain(Workload):
    """One op: cli.main(["boost-train", "--n", "2000", "--epochs", "50",
    "--seed", s, ...]), the loss/beta setting rotating through boost beta=1,
    focal and boost beta=0.05, the three golden configurations.

    Why: the trainer's epoch loop (forward, loss gradient, step) dominates;
    tiling and fusion are bypassed. This is where removing the duplicate
    forward in train_toy and merging the loss twins show.
    """

    name = "boost-train"
    N, EPOCHS = 2000, 50
    CONFIGS = (
        ("boost", "1.0", "golden_train_boost.csv"),
        ("focal", "1.0", "golden_train_focal.csv"),
        ("boost", "0.05", "golden_train_boost_b005.csv"),
    )
    cycle = len(CONFIGS)
    hooks = (
        ("harness", "synth_dataset", "harness.synth_dataset"),
        ("harness", "train_toy", "harness.train_toy"),
    )
    layer_names = (
        "cli.boost-train.ms", "cli.overhead_ms", "harness.synth_dataset.ms",
        "harness.train_toy.ms", "harness.train_toy.epochs", "harness.train_toy.epoch0_ms",
        "harness.train_toy.ms_per_epoch", "trace.overhead_ratio",
    )

    def inputs(self, i):
        loss, beta, _ = self.CONFIGS[i % self.cycle]
        s = int(op_rng(self.seed, i).integers(2**31))
        return loss, beta, s

    def _argv(self, loss, beta, s, n, epochs):
        return ["boost-train", "--loss", loss, "--beta", beta, "--alpha", "0.25",
                "--gamma", "2.0", "--lr", "0.5", "--seed", str(s), "--n", str(n),
                "--epochs", str(epochs)]

    def run(self, op):
        loss, beta, s = op
        with self.span("cli.boost-train"):
            return invoke(self.sk.cli.main, self._argv(loss, beta, s, self.N, self.EPOCHS))

    def check(self, op, call):
        loss, beta, s = op
        return [Check("boost-train", True, call.exc is None and call.code == 0
                      and self._csv_ok(call.out, loss, float(beta), s))]

    def _csv_ok(self, out, loss, beta, s) -> bool:
        lines = out.splitlines()
        head = (f"# boost-train loss={loss} alpha=0.250000 beta={beta:.6f} gamma=2.000000 "
                f"epochs={self.EPOCHS} lr=0.500000 seed={s} n={self.N} final_loss=")
        if len(lines) != 7 or not lines[0].startswith(head):
            return False
        if lines[1] != "bucket,count,recall,mean_positive_weight":
            return False
        try:
            if not math.isfinite(float(lines[0][len(head):])):
                return False
            rows = [line.split(",") for line in lines[2:]]
            counts = [int(r[1]) for r in rows]
            recalls = [float(r[2]) for r in rows]
            weights = [float(r[3]) for r in rows]
        except (ValueError, IndexError):
            return False
        return (
            [r[0] for r in rows] == list(BUCKETS)
            and all(len(r) == 4 for r in rows)
            and sum(counts) == self.N
            and all(math.isnan(v) or 0.0 <= v <= 1.0 for v in recalls)
            and all(math.isnan(v) or v >= 0.0 for v in weights)
        )

    def run_checks(self):
        # the three golden configurations reproduce byte-exactly
        checks = []
        for loss, beta, golden in self.CONFIGS:
            call = invoke(self.sk.cli.main, self._argv(loss, beta, 42, 5000, 200))
            want = (GOLDEN_DIR / golden).read_text()
            ok = call.exc is None and call.code == 0 and call.out == want
            checks.append(Check(f"golden {golden}", True, ok))
        return checks

    def probe(self, op, call, tracer):
        loss, beta, s = op
        h = self.sk.harness
        data = h.synth_dataset(s, self.N)
        cfg = h.RunConfig(loss=loss, beta=float(beta), epochs=0, seed=s, n=self.N)
        with tracer.span("harness.train_toy.epoch0"):
            h.train_toy(data, cfg)

    def layer_metrics(self, ms, calls, n_ops):
        epoch0 = ms["harness.train_toy.epoch0"]
        train = ms["harness.train_toy"]
        return {
            "harness.train_toy.epochs": float(self.EPOCHS),
            "harness.train_toy.epoch0_ms": epoch0,
            "harness.train_toy.ms_per_epoch": (train - epoch0) / self.EPOCHS,
        }


class CliSmall(Workload):
    """One op: a round of five in-process invocations on small inputs:
    clap-plan, boost-table, cctm-check --shape 1,3,5, score-stats on one of a
    few generated 2,000-entry COCO files, and one invalid invocation from a
    fixed list.

    Why: fusion is used differently here. gradient_check makes about 200 tiny
    forwards, where per-call overhead matters more than FLOPs, so a cctm-step
    speed-up that adds per-call cost shows up here. It is also the only
    workload for JSON ingest, weight_table and CLI validation.
    """

    name = "cli-small"
    PATCHES = (32, 56, 224)
    GC_SHAPE = (1, 3, 5)
    BETAS = (0.05, 0.1, 0.25, 1.0)
    TIE_SIZE = (1.28, 1.28)  # cs_hat = 0.00125, a tie: half-up gives 0.0013, half-even 0.0012
    EDGES = (0.0, 16.0, 32.0, 64.0, 128.0, 256.0)  # score-stats default, per README
    THRESHOLDS = (0.3, 0.4, 0.5)
    N_FILES, N_ENTRIES = 3, 2000
    hooks = (
        ("tiling", "plan_grid", "tiling.plan_grid"),
        ("fusion", "gradient_check", "fusion.gradient_check"),
        ("cli", "weight_table", "boost.weight_table"),
        ("boost", "weight_table", "boost.weight_table"),
        ("harness", "ingest_coco_results", "harness.ingest_coco_results"),
        ("harness", "score_stats", "harness.score_stats"),
    )
    layer_names = (
        *(f"cli.{c}.ms" for c in ("clap-plan", "boost-table", "cctm-check", "score-stats",
                                  "reject")),
        "cli.overhead_ms", "cli.reject.expected_ratio",
        "tiling.plan_grid.ms", "boost.weight_table.ms",
        "fusion.gradient_check.ms", "fusion.gradient_check.forwards",
        "fusion.gradient_check.us_per_forward", "fusion.gradient_check.max_rel_err",
        "harness.ingest_coco_results.ms", "harness.ingest_coco_results.us_per_entry",
        "harness.score_stats.ms", "harness.score_stats.kept_ratio", "trace.overhead_ratio",
    )
    # the layer calls of an invalid invocation count in cli.reject.ms alone
    untallied = ("cli.reject",)

    def __init__(self, sk, seed, workdir):
        super().__init__(sk, seed, workdir)
        rng = op_rng(seed, 0, 1)
        self.files = [self._write_coco(rng, k) for k in range(self.N_FILES)]
        nan_file = workdir / "nan_extent.json"
        nan_file.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                         "bbox": [0.0, 0.0, float("nan"), 4.0], "score": 0.9}]))
        neg_file = workdir / "negative_extent.json"
        neg_file.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                         "bbox": [0.0, 0.0, -3.0, 4.0], "score": 0.9}]))
        plan = ["--height", "64", "--patch-w", "32", "--patch-h", "32"]
        self.rejects = [
            # defects reproduced at the seed commit (ROADMAP, validation item);
            # they count as failed until the CLI rejects them
            ["boost-table", "--sizes", "2x2,8x8", "--betas", "0,1.0"],  # ZeroDivisionError
            ["boost-table", "--sizes", "2x2,8x8", "--gamma", "nan"],  # exit 0, table of nan
            ["score-stats", "--in", str(nan_file)],  # NaN extent counted in the top bucket
            ["boost-train", "--n", "200", "--epochs", "3", "--alpha", "7", "--gamma", "-3"],
            ["cctm-check", "--shape", "1,0,5"],  # OverflowError
            ["cctm-check", "--shape", "1,3,0"],  # "pass" on an empty problem
            # inputs the seed commit already rejects correctly
            ["clap-plan", "--width", "0", *plan],
            ["clap-plan", "--width", "abc", *plan],
            ["boost-table", "--image", "1x1", "--sizes", "2x2"],
            ["boost-train", "--loss", "hinge", "--n", "200", "--epochs", "1"],
            ["cctm-check", "--shape", "1,3"],
            ["score-stats", "--in", str(neg_file)],
            ["score-stats", "--in", str(workdir / "missing.json")],
        ]
        self.cycle = len(self.rejects)
        params = sk.fusion.CCTMParams.random(self.GC_SHAPE[1], op_rng(seed, 0, 2))
        coords = 2 * math.prod(self.GC_SHAPE)
        coords += sum(getattr(params, n).size for n in oracles.array_fields(params))
        self.gc_forwards = 2 * coords + 1

    def _write_coco(self, rng, k):
        n = self.N_ENTRIES
        w = np.round(np.exp(rng.uniform(0.0, math.log(400.0), n)), 2)
        h = np.round(np.exp(rng.uniform(0.0, math.log(400.0), n)), 2)
        xy = np.round(rng.uniform(0.0, 600.0, (n, 2)), 2)
        score = np.round(rng.uniform(0.0, 1.0, n), 4)
        cat = rng.integers(1, 81, n)
        entries = [
            {"image_id": j // 20, "category_id": int(cat[j]),
             "bbox": [xy[j, 0], xy[j, 1], w[j], h[j]], "score": score[j]}
            for j in range(n)
        ]
        path = self.workdir / f"results_{k}.json"
        path.write_text(json.dumps(entries))
        return path, w, h, score

    def inputs(self, i):
        rng = op_rng(self.seed, i)
        W, H = (int(v) for v in rng.integers(1, 2001, 2))
        pw, ph = (int(v) for v in rng.choice(self.PATCHES, 2))
        k = int(rng.integers(3, 7))
        sides = np.rint(np.exp(rng.uniform(0.0, math.log(512.0), (k - 1, 2)))).astype(int)
        sizes = [self.TIE_SIZE] + [(int(a), int(b)) for a, b in sides]
        return {
            "plan": (W, H, pw, ph),
            "sizes": sizes,
            "gc_seed": int(rng.integers(2**31)),
            "file": int(rng.integers(self.N_FILES)),
            "threshold": float(rng.choice(self.THRESHOLDS)),
            "reject": self.rejects[i % self.cycle],
        }

    def _call(self, span, argv):
        with self.span(span):
            return invoke(self.sk.cli.main, argv)

    def run(self, op):
        W, H, pw, ph = op["plan"]
        plan = ["clap-plan", "--width", str(W), "--height", str(H),
                "--patch-w", str(pw), "--patch-h", str(ph)]
        table = ["boost-table", "--image", "1024x1024",
                 "--sizes", ",".join(f"{a}x{b}" for a, b in op["sizes"]),
                 "--gamma", "0.25", "--betas", ",".join(map(str, self.BETAS))]
        grad = ["cctm-check", "--seed", str(op["gc_seed"]),
                "--shape", ",".join(map(str, self.GC_SHAPE))]
        stats = ["score-stats", "--in", str(self.files[op["file"]][0]),
                 "--threshold", str(op["threshold"])]
        return [
            self._call("cli.clap-plan", plan),
            self._call("cli.boost-table", table),
            self._call("cli.cctm-check", grad),
            self._call("cli.score-stats", stats),
            self._call("cli.reject", op["reject"]),
        ]

    def check(self, op, calls):
        plan, table, grad, stats, reject = calls
        want = oracles.clap_plan_row(*op["plan"])
        if want is None:
            plan_ok = plan.exc is None and plan.code == 1 and plan.out == ""
        else:
            plan_ok = plan.exc is None and plan.code == 0 and plan.out == want + "\n"
        lines = oracles.weight_table_lines(op["sizes"], 1024.0, 1024.0, 0.25, self.BETAS)
        table_ok = table.exc is None and table.code == 0 and table.out == "\n".join(lines) + "\n"
        return [
            Check("clap-plan", True, plan_ok),
            Check("boost-table", True, table_ok),
            Check("cctm-check", True, self._grad_ok(op, grad)),
            Check("score-stats", True, self._stats_ok(op, stats)),
            Check("reject " + " ".join(op["reject"][:1]), False,
                  reject.exc is None and reject.code in (1, 2)),
        ]

    def _grad_err(self, op, call) -> float | None:
        """The error cctm-check reports for this op's seed and shape, passed
        or not; None when its output is not such a row."""
        fields = call.out.strip().split(",")
        shape = "x".join(map(str, self.GC_SHAPE))
        if len(fields) != 4 or fields[0] != str(op["gc_seed"]) or fields[1] != shape:
            return None
        try:
            return float(fields[2])
        except ValueError:
            return None

    def _grad_ok(self, op, call) -> bool:
        err = self._grad_err(op, call)
        return (call.exc is None and call.code == 0 and err is not None
                and err < oracles.GRAD_TOL and call.out.strip().endswith(",pass"))

    def _stats_ok(self, op, call) -> bool:
        if call.exc is not None or call.code != 0:
            return False
        _, w, h, score = self.files[op["file"]]
        labels, counts, means = oracles.score_stats_expected(
            w, h, score, op["threshold"], self.EDGES
        )
        edges = "|".join(f"{e:g}" for e in self.EDGES)
        lines = call.out.splitlines()
        if lines[:2] != [f"# score-stats threshold={op['threshold']:.6f} edges={edges}",
                         "bucket,count,mean_score"] or len(lines) != 2 + len(labels):
            return False
        for line, label, count, mean in zip(lines[2:], labels, counts, means):
            got = line.rsplit(",", 2)  # the bucket label itself holds a comma
            if len(got) != 3 or got[0] != label or got[1] != str(count):
                return False
            if count == 0:
                if got[2] != "nan":
                    return False
            elif not abs(float(got[2]) - mean) <= 5e-7 + 1e-12:
                return False
        return True

    def probe(self, op, calls, tracer):
        err = self._grad_err(op, calls[2])
        if err is not None:  # an unreadable row already fails the op's check
            self.tally["gc_max_rel_err"] = max(self.tally["gc_max_rel_err"], err)
        _, w, h, score = self.files[op["file"]]
        counts = oracles.score_stats_expected(w, h, score, op["threshold"], self.EDGES)[1]
        self.tally["kept"] += int(counts.sum())
        reject = calls[4]
        self.tally["reject_expected"] += reject.exc is None and reject.code in (1, 2)

    def layer_metrics(self, ms, calls, n_ops):
        gc_ms = ms["fusion.gradient_check"]
        return {
            "fusion.gradient_check.forwards": float(self.gc_forwards),
            "fusion.gradient_check.us_per_forward": gc_ms * 1e3 / self.gc_forwards,
            "fusion.gradient_check.max_rel_err": self.tally["gc_max_rel_err"],
            "harness.ingest_coco_results.us_per_entry":
                ms["harness.ingest_coco_results"] * 1e3 / self.N_ENTRIES,
            "harness.score_stats.kept_ratio": self.tally["kept"] / n_ops / self.N_ENTRIES,
            "cli.reject.expected_ratio": self.tally["reject_expected"] / n_ops,
        }


WORKLOADS = {w.name: w for w in (CctmStep, BoostTrain, CliSmall)}
