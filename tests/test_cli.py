import contextlib
import dataclasses
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodkit.cli import COMMANDS, build_parser, main

from interpreter import fresh_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_rejected(code, out, err, needle):
    assert code == 1
    assert out == ""
    assert err.startswith("sodkit: ") and err.count("\n") == 1
    assert needle in err


def _coco(bbox, score=0.9):
    return json.dumps([{"image_id": 1, "category_id": 1, "bbox": bbox, "score": score}])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The paths that _REJECTED names as {name}; every file but `missing` exists."""
    folder = tmp_path_factory.mktemp("inputs")
    files = {
        "malformed": _coco([1, 2, 3], 0.5).encode(),
        "nan": _coco([0.0, 0.0, math.nan, 4.0]).encode(),
        "inf": _coco([0.0, 0.0, math.inf, 4.0]).encode(),
        "utf16": _coco([0, 0, 20, 20]).encode("utf-16"),  # with a byte-order mark
        "unknown_key": b"wdith = 800\n",
        "not_utf8": b"width = \xff\n",
    }
    for name, data in files.items():
        (folder / name).write_bytes(data)
    return {name: str(folder / name) for name in [*files, "missing"]}


_TABLE = ["boost-table", "--sizes", "2x2,8x8"]
_TRAIN = ["boost-train", "--n", "200", "--epochs", "3"]

# (id, argv, needle): each argv exits 1 with nothing on stdout and one
# `sodkit: ` line on stderr that holds the needle; argv and needle name the
# inputs as {name}
_REJECTED = [
    ("clap-plan-degenerate",
     ["clap-plan", "--width", "6", "--height", "1", "--patch-w", "4", "--patch-h", "1"],
     "degenerate"),
    ("clap-plan-missing-flag", ["clap-plan", "--width", "100"], "required"),
    ("cctm-check-shape-1,0,5", ["cctm-check", "--shape", "1,0,5"],
     "C must be a positive integer, got 0"),
    ("cctm-check-shape-1,3,0", ["cctm-check", "--shape", "1,3,0"],
     "L must be a positive integer, got 0"),
    ("cctm-check-shape-0,3,5", ["cctm-check", "--shape", "0,3,5"],
     "B must be a positive integer, got 0"),
    ("cctm-check-shape-1,3", ["cctm-check", "--shape", "1,3"],
     "expected three extents B,C,L, got (1, 3)"),
    # beyond every numpy integer and, at 401 digits, beyond float64: the bound
    # on the coordinates is counted in Python integers, so it names both
    ("cctm-check-channels-2**64", ["cctm-check", "--shape", f"1,{2**64},1"],
     "more than the bound of 16384"),
    ("cctm-check-channels-10**400", ["cctm-check", "--shape", f"1,{10**400},1"],
     "more than the bound of 16384"),
    # a C x C weight and [n, 2] box sides: the first array of each is over
    # 2**48 bytes, beyond any x86-64 user address space, so the allocation is
    # refused whatever the host's overcommit policy; cctm-check meets its
    # bound on the coordinate count before any allocation
    ("cctm-check-c-by-c-weight", ["cctm-check", "--shape", "1,10000000,1"],
     "more than the bound of 16384"),
    ("boost-train-n-beyond-memory", ["boost-train", "--n", "100000000000000", "--epochs", "1"],
     "Unable to allocate"),
    ("boost-train-loss-hinge", ["boost-train", "--loss", "hinge", "--n", "10", "--epochs", "1"],
     "loss"),
    ("boost-train-alpha-7-gamma--3", [*_TRAIN, "--alpha", "7", "--gamma", "-3"], "alpha"),
    ("boost-train-alpha-nan", [*_TRAIN, "--alpha", "nan"], "alpha"),
    ("boost-train-gamma--3", [*_TRAIN, "--gamma", "-3"], "gamma"),
    ("boost-train-gamma-inf", [*_TRAIN, "--gamma", "inf"], "gamma"),
    ("boost-train-beta-0", [*_TRAIN, "--beta", "0"], "beta"),
    ("boost-table-betas-0,1.0", [*_TABLE, "--betas", "0,1.0"], "beta"),
    ("boost-table-betas-0.5,1.5", [*_TABLE, "--betas", "0.5,1.5"], "beta"),
    ("boost-table-gamma-nan", [*_TABLE, "--gamma", "nan"], "gamma"),
    ("boost-table-gamma--1", [*_TABLE, "--gamma", "-1"], "gamma"),
    ("boost-table-zero-weight", ["boost-table", "--image", "8x8", "--sizes", "8x8,4x4"],
     "sizes 8x8 and 4x4 at beta=0.05"),
    ("boost-table-weight-rounds-to-0",
     ["boost-table", "--sizes", "1000x1000,1024x1024", "--gamma", "8"], "a weight rounds to 0"),
    ("boost-table-image-nanx8", ["boost-table", "--image", "nanx8", "--sizes", "2x2"], "finite"),
    ("boost-table-empty-betas", [*_TABLE, "--betas", ","], "non-empty"),
    ("boost-table-empty-sizes", ["boost-table", "--sizes", ","], "non-empty"),
    ("score-stats-empty-edges", ["score-stats", "--in", "unread.json", "--edges", ","],
     "non-empty"),
    ("score-stats-malformed", ["score-stats", "--in", "{malformed}"], "entry 0"),
    ("score-stats-nan-extent", ["score-stats", "--in", "{nan}"], "entry 0: non-finite"),
    ("score-stats-inf-extent", ["score-stats", "--in", "{inf}"], "entry 0: non-finite"),
    ("score-stats-not-json", ["score-stats", "--in", "/dev/null"],
     "not valid JSON: Expecting value"),
    ("score-stats-not-utf8", ["score-stats", "--in", "{utf16}"], "not UTF-8 text"),
    ("score-stats-missing-file", ["score-stats", "--in", "{missing}"], "No such file"),
    ("config-unknown-key", ["clap-plan", "--config", "{unknown_key}"], "wdith"),
    ("config-not-utf8", ["clap-plan", "--config", "{not_utf8}"],
     "{not_utf8}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 8"),
    ("unknown-subcommand", ["frobnicate"], "invalid choice"),
]


@pytest.mark.parametrize("argv,needle", [row[1:] for row in _REJECTED],
                         ids=[row[0] for row in _REJECTED])
def test_rejection_exits_1_with_one_line(capsys, inputs, argv, needle):
    assert_rejected(*run(capsys, *(a.format(**inputs) for a in argv)), needle.format(**inputs))


def test_clap_plan_row(capsys):
    code, out, _ = run(capsys, "clap-plan", "--width", "800", "--height", "600",
                       "--patch-w", "224", "--patch-h", "224")
    assert code == 0
    assert out.strip() == "800,600,224,224,4,3,38,48,0|186|372|576;0|176|376"


def test_clap_plan_single_patch(capsys):
    code, out, _ = run(capsys, "clap-plan", "--width", "224", "--height", "100",
                       "--patch-w", "224", "--patch-h", "224")
    assert code == 0
    assert out.strip() == "224,100,224,224,1,1,0,0,0;0"


def test_cctm_check_passes(capsys):
    code, out, _ = run(capsys, "cctm-check", "--seed", "3", "--shape", "1,3,5")
    assert code == 0
    seed, shape, err, verdict = out.strip().split(",")
    assert (seed, shape, verdict) == ("3", "1x3x5", "pass")
    assert float(err) < 1e-4


def test_boost_table_first_row(capsys):
    code, out, _ = run(capsys, "boost-table", "--sizes", "2x2,8x8,80x80",
                       "--gamma", "0.25", "--betas", "0.05,0.1,0.25,1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "2x2,0.0020,0.7189,0.8248,0.9423,0.9995"
    assert lines[4].startswith("RD 2x2 vs 8x8")


def test_boost_train_writes_deterministic_csv(tmp_path, capsys):
    args = ["boost-train", "--loss", "boost", "--beta", "0.05", "--epochs", "5",
            "--n", "200", "--seed", "42"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(capsys, *args) == (0, a.read_text(), "")
    text = a.read_text()
    assert text.startswith("# boost-train loss=boost")
    assert "bucket,count,recall,mean_positive_weight" in text


# a plan lists one start per patch, so without the bound on the patch count
# this command would fill memory; the child runs under a 1 GiB address-space
# limit, so that a missing bound ends in a MemoryError, not the host's memory
_CAPPED_MAIN = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sodkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_clap_plan_refuses_a_patch_count_beyond_the_bound():
    proc = fresh_python("-c", _CAPPED_MAIN, "clap-plan", "--width", str(10**12), "--height", "8",
                        "--patch-w", "1", "--patch-h", "8")
    assert_rejected(proc.returncode, proc.stdout, proc.stderr,
                    f"needs {10**12} patches on one axis, more than the bound of 1048576")


# a gradient check at perfbench's CCTM step would take about 2 h; the bound
# refuses it at once, so the capped child exits well inside its timeout
def test_cctm_check_refuses_a_shape_beyond_the_bound():
    proc = fresh_python("-c", _CAPPED_MAIN, "cctm-check", "--shape", "2,64,1024")
    assert_rejected(proc.returncode, proc.stdout, proc.stderr,
                    "perturbs 283200 coordinates, more than the bound of 16384")


def test_memory_error_without_text_exits_1_with_one_line(capsys, monkeypatch):
    # Python's own MemoryError, unlike numpy's, carries no message
    def refused(ns):
        raise MemoryError()

    monkeypatch.setitem(COMMANDS, "clap-plan", (COMMANDS["clap-plan"][0], refused))
    code, out, err = run(capsys, "clap-plan", "--width", "8", "--height", "8",
                         "--patch-w", "8", "--patch-h", "8")
    assert (code, out, err) == (1, "", "sodkit: out of memory\n")


# scipy supplies only the GELU's erf, so only a command that evaluates a GELU
# loads scipy code, and it loads the erf extension module alone, never the
# scipy.special package; likewise only a command that draws random numbers
# loads numpy.random; each case runs in a fresh interpreter, which has
# imported nothing
_MAIN_THEN_SCIPY = """\
import sys
from sodkit import numeric
from sodkit.cli import main
code = main(sys.argv[1:])
print("scipy.special" in sys.modules, numeric._erf is not None,
      "numpy.random" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

# the modules perfbench imports, and what of scipy and numpy.random they load
_IMPORT_THEN_LIST = """\
import sys
from sodkit import tiling, fusion, numeric, boost, harness, cli
print(sorted(m for m in sys.modules if m.startswith(("scipy", "numpy.random"))))
"""


def test_import_sodkit_leaves_scipy_unloaded():
    proc = fresh_python("-c", _IMPORT_THEN_LIST)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# the commands that draw random numbers: a synthetic dataset or CCTM parameters
_DRAWS_RANDOM = {"boost-train", "cctm-check"}


@pytest.mark.parametrize("argv,loads_erf", [
    (["clap-plan", "--width", "800", "--height", "600", "--patch-w", "224",
      "--patch-h", "224"], False),
    (["boost-table", "--sizes", "2x2,8x8,80x80"], False),
    (["boost-train", "--n", "200", "--epochs", "2"], False),
    (["score-stats", "--in", "{results}"], False),
    (["cctm-check", "--seed", "3"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_only_a_gelu_loads_scipy(tmp_path, argv, loads_erf):
    results = tmp_path / "r.json"
    results.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                    "bbox": [0, 0, 20, 20], "score": 0.9}]))
    proc = fresh_python("-c", _MAIN_THEN_SCIPY, *(a.format(results=results) for a in argv))
    loads_random = argv[0] in _DRAWS_RANDOM
    assert (proc.returncode, proc.stderr) == (0, f"False {loads_erf} {loads_random}\n")
    if argv[0] == "cctm-check":
        assert proc.stdout.strip().endswith(",pass")


def test_score_stats_end_to_end(tmp_path, capsys):
    entries = [
        {"image_id": 1, "category_id": 1, "bbox": [0, 0, 4, 4], "score": 0.5},
        {"image_id": 1, "category_id": 1, "bbox": [0, 0, 100, 100], "score": 0.9},
        {"image_id": 2, "category_id": 2, "bbox": [0, 0, 50, 50], "score": 0.1},
    ]
    path = tmp_path / "results.json"
    path.write_text(json.dumps(entries))
    code, out, _ = run(capsys, "score-stats", "--in", str(path),
                       "--threshold", "0.4", "--edges", "0,32")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "bucket,count,mean_score"
    assert lines[2] == "[0,32),1,0.500000"
    assert lines[3] == "[32,inf),1,0.900000"


def test_score_stats_overflowing_box_area_is_silent(tmp_path):
    # w * h overflows to inf, whose square root is the open top bucket's size
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                 "bbox": [0, 0, 1e308, 1e308], "score": 0.9}]))
    proc = fresh_python("-m", "sodkit.cli", "score-stats", "--in", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "[256,inf),1,0.900000"


@pytest.mark.parametrize("command", [
    ["cctm-check", "--shape", "1,1,1"],
    ["boost-train", "--n", "10", "--epochs", "1"],
])
def test_negative_seed_is_rejected_naming_the_flag(capsys, monkeypatch, command):
    from sodkit import cli

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli.fusion, "gradient_check", no_work)
    monkeypatch.setattr(cli.harness, "synth_dataset", no_work)
    assert_rejected(*run(capsys, *command, "--seed", "-1"),
                    "sodkit: --seed: seed must be a non-negative integer, got -1")


@pytest.mark.parametrize("command", [
    ["cctm-check", "--shape", "1,1,1"],
    ["boost-train", "--n", "10", "--epochs", "1"],
])
def test_huge_seed_is_accepted(capsys, command):
    code, out, err = run(capsys, *command, "--seed", "99999999999999999999999")
    assert (code, err) == (0, "")
    assert "99999999999999999999999" in out


def test_boost_table_all_unit_weights_is_valid(capsys):
    code, out, _ = run(capsys, "boost-table", "--image", "8x8", "--sizes", "4x4,8x8",
                       "--gamma", "0")
    assert code == 0
    assert out.splitlines()[-1] == "RD 4x4 vs 8x8,,0.0000,0.0000,0.0000,0.0000"


_NUMBERS = st.one_of(
    st.integers(-3, 1100).map(str),
    st.sampled_from(["0", "-0", "1.5", "0.05", "nan", "-nan", "inf", "-inf", "1e400", "", "x"]),
)
# loss parameters: the fuzzed numbers, and values inside the domains too
_LOSS_NUMBERS = st.one_of(_NUMBERS, st.floats(0.0, 1.0).map(repr))
_PAIRS = st.one_of(st.tuples(_NUMBERS, _NUMBERS).map("x".join), st.sampled_from(["8", "8x"]))


def _listed(items):
    return st.lists(items, max_size=4).map(",".join)


def _flags(options):
    """argv fragments: each (flag, values) pair is left out or given once."""
    return st.tuples(*(st.one_of(st.just([]), values.map(lambda v, f=flag: [f, v]))
                       for flag, values in options)).map(lambda parts: sum(parts, []))


class _Doc(str):
    """A score-stats input document in an argv: the test writes it to a file
    and passes that file's path instead."""


_JSON_SCALARS = st.one_of(
    st.integers(-2, 300), st.floats(-1.0, 400.0),
    st.sampled_from([0.5, 1.5, -0.0, math.nan, math.inf, 2**63, 1e300, "0.5", "x", None, True, []]),
)
_GOOD_ENTRY = st.fixed_dictionaries({
    "image_id": st.integers(0, 9), "category_id": st.integers(1, 80),
    "bbox": st.lists(st.floats(0.0, 300.0), min_size=4, max_size=4),
    "score": st.floats(0.0, 1.0),
})
_FUZZED_ENTRY = st.fixed_dictionaries({}, optional={
    "image_id": _JSON_SCALARS, "category_id": _JSON_SCALARS,
    "bbox": st.lists(_JSON_SCALARS, min_size=3, max_size=5), "score": _JSON_SCALARS,
})
_EDGES = st.one_of(st.integers(-1, 300).map(str),
                   st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-0", "x", ""]))
_GOOD_DOCS = st.lists(_GOOD_ENTRY, max_size=4).map(json.dumps).map(_Doc)
_COCO_DOCS = st.one_of(
    _GOOD_DOCS,
    st.lists(st.one_of(_GOOD_ENTRY, _FUZZED_ENTRY, _JSON_SCALARS), max_size=4).map(json.dumps),
    st.sampled_from(["", "[", "{}", "null", "[1]", "[" * 5000 + "]" * 5000]),
).map(_Doc)


class _Cfg(bytes):
    """A --config file's bytes in an argv: the test writes them to a file and
    passes that file's path instead."""


# tiny cctm-check problems (each extent <= 3), and malformed, empty or huge
# shapes; a huge extent is refused before any allocation
_SHAPES = st.one_of(
    st.lists(st.integers(1, 3), min_size=3, max_size=3).map(lambda v: ",".join(map(str, v))),
    st.lists(st.one_of(st.integers(-1, 3).map(str),
                       st.sampled_from(["", "x", " 2", "1.5", str(2**63), str(2**64),
                                        str(10**400)])),
             max_size=4).map(",".join),
)
_SEEDS = st.one_of(st.integers(-1, 2**40).map(str), st.sampled_from(["", "x", "1e3", "-0"]))


def _config(command, valid_lines, flags):
    """argv running command on a config file of lines that are valid for it,
    or of any mix of valid, unknown-key, malformed, non-UTF-8, comment and
    blank lines; flags may override the file."""
    line = st.one_of(
        valid_lines,
        st.sampled_from([b"wdith = 800", b"seed_ = 1", b"out put = x", b"loss = boost"]),
        st.sampled_from([b"width 800", b"= 3", b"[clap-plan]", b"shape: 1,2,3", b"="]),
        st.sampled_from([b"width = \xff", b"\xfe\xff", b"# caf\xe9", b"seed = 1\x80"]),
        st.sampled_from([b"", b"# a comment", b"   "]),
    )
    lines = st.one_of(st.lists(valid_lines, max_size=5), st.lists(line, max_size=5))
    return st.tuples(lines.map(b"\n".join).map(_Cfg), flags).map(
        lambda cf: [command, "--config", cf[0], *cf[1]])


def _key_lines(keys, values):
    """`key = value` lines, the key spelled with '-' or '_' as the CLI allows."""
    return st.tuples(st.sampled_from(keys), values).map(lambda kv: f"{kv[0]} = {kv[1]}".encode())


_ARGV = st.one_of(
    _flags([("--width", _NUMBERS), ("--height", _NUMBERS), ("--patch-w", _NUMBERS),
            ("--patch-h", _NUMBERS)]).map(lambda f: ["clap-plan", *f]),
    _flags([("--image", _PAIRS), ("--sizes", _listed(_PAIRS)), ("--gamma", _NUMBERS),
            ("--betas", _listed(_NUMBERS))]).map(lambda f: ["boost-table", *f]),
    # valid sizes under any image, and a valid image with any gamma and betas,
    # so the table itself is reached often
    _PAIRS.map(lambda image: ["boost-table", "--image", image, "--sizes", "2x2,4x4"]),
    _flags([("--gamma", _NUMBERS), ("--betas", _listed(_NUMBERS))]).map(
        lambda f: ["boost-table", "--image", "8x8", "--sizes", "2x2,4x4,8x8", *f]),
    st.one_of(
        _flags([("--in", _COCO_DOCS), ("--threshold", _NUMBERS), ("--edges", _listed(_NUMBERS))]),
        # a document and default flags, so the ingest itself is reached often
        _COCO_DOCS.map(lambda doc: ["--in", doc]),
        # a valid document with any edges, so the statistics are reached often
        st.tuples(_GOOD_DOCS, _listed(_EDGES)).map(lambda de: ["--in", de[0], "--edges", de[1]]),
    ).map(lambda f: ["score-stats", *f]),
    # tiny runs, always with --n and --epochs so the defaults (5000 samples,
    # 200 epochs) are never trained
    st.one_of(
        st.tuples(
            st.one_of(st.integers(-1, 50).map(str), st.just("x")),
            st.one_of(st.integers(-1, 3).map(str), st.just("x")),
            _flags([("--loss", st.sampled_from(["boost", "focal", "hinge", ""])),
                    ("--alpha", _LOSS_NUMBERS), ("--beta", _LOSS_NUMBERS),
                    ("--gamma", _LOSS_NUMBERS), ("--lr", _LOSS_NUMBERS),
                    ("--seed", st.integers(0, 999).map(str))]),
        ),
        # parameters inside their domains (an infinite rate included), so
        # training itself is reached often
        st.tuples(
            st.integers(1, 50).map(str),
            st.integers(0, 3).map(str),
            _flags([("--loss", st.sampled_from(["boost", "focal"])),
                    ("--alpha", st.floats(0.0, 1.0).map(repr)),
                    ("--beta", st.floats(0.0, 1.0, exclude_min=True).map(repr)),
                    ("--gamma", st.floats(0.0, 8.0).map(repr)),
                    ("--lr", st.one_of(st.floats(1e-6, 1e6).map(repr),
                                       st.sampled_from(["1e300", "inf"]))),
                    ("--seed", st.integers(0, 999).map(str))]),
        ),
    ).map(lambda t: ["boost-train", "--n", t[0], "--epochs", t[1], *t[2]]),
    _flags([("--seed", _SEEDS), ("--shape", _SHAPES)]).map(lambda f: ["cctm-check", *f]),
    st.one_of(
        _config("clap-plan",
                _key_lines(["width", "height", "patch-w", "patch_w", "patch-h", "patch_h"],
                           _NUMBERS),
                _flags([("--width", _NUMBERS)])),
        # all four keys with small valid values, so the plan itself is reached often
        st.lists(st.integers(1, 300), min_size=4, max_size=4).map(lambda v: [
            "clap-plan", "--config",
            _Cfg(b"width = %d\nheight = %d\npatch-w = %d\npatch_h = %d\n" % tuple(v))]),
        _config("cctm-check",
                st.one_of(_key_lines(["seed"], _SEEDS), _key_lines(["shape"], _SHAPES)),
                _flags([("--seed", _SEEDS)])),
    ),
)


def _table_is_whole(text):
    """Header and at least one size row; every cell filled but the cs_hat
    cell of the relative-distance rows."""
    rows = [line.split(",") for line in text.splitlines()]
    return len(rows) >= 2 and all(
        all(cell for j, cell in enumerate(row) if not (row[0].startswith("RD ") and j == 1))
        and len(row) == len(rows[0])
        for row in rows
    )


def _nan_only_in_empty_buckets(text):
    """score-stats output whose only nan is the documented mean of an empty
    bucket."""
    lines = text.splitlines()
    if len(lines) < 3 or "nan" in lines[0] + lines[1]:
        return False
    rows = [line.rsplit(",", 2) for line in lines[2:]]  # a bucket label holds a comma
    return all(len(row) == 3 and "nan" not in row[0] + row[1]
               and (row[2] == "nan") == (row[1] == "0") for row in rows)


def _train_csv_is_whole(text):
    """boost-train output: the schema line, the column header and one row per
    bucket; nan only in the recall and mean-weight cells, and there together
    (a bucket without positives)."""
    lines = text.splitlines()
    if len(lines) != 7 or not lines[0].startswith("# boost-train ") or "nan" in lines[0]:
        return False
    if lines[1] != "bucket,count,recall,mean_positive_weight":
        return False
    rows = [line.split(",") for line in lines[2:]]
    return all(len(row) == 4 and "nan" not in row[0] + row[1]
               and (row[2] == "nan") == (row[3] == "nan") for row in rows)


def _captured_main(argv):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# eight branches at about 333 examples each, as the six earlier ones had
@given(_ARGV)
@settings(max_examples=2667, deadline=None)
def test_cli_exits_0_1_or_2_and_prints_no_nan(tmp_path_factory, argv):
    doc_path = tmp_path_factory.getbasetemp() / "score_stats_in.json"
    cfg_path = tmp_path_factory.getbasetemp() / "options.cfg"
    for a in argv:
        if isinstance(a, _Doc):
            doc_path.write_text(a)
        elif isinstance(a, _Cfg):
            cfg_path.write_bytes(a)
    argv = [str(doc_path) if isinstance(a, _Doc) else str(cfg_path) if isinstance(a, _Cfg)
            else a for a in argv]
    code, out, err = _captured_main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        if argv[0] == "score-stats":
            assert _nan_only_in_empty_buckets(out)
        elif argv[0] == "boost-train":
            assert _train_csv_is_whole(out)
        else:
            assert "nan" not in out
        if argv[0] == "boost-table":
            assert _table_is_whole(out)
    else:
        assert out == ""
        assert err.startswith("sodkit: ") and err.count("\n") == 1


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("width = 800\nheight = 600\npatch-w = 224\npatch_h = 224\n")
    code, out, _ = run(capsys, "clap-plan", "--config", str(cfg))
    assert code == 0
    assert out.startswith("800,600,224,224")


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("width = 800\nheight = 600\npatch-w = 224\npatch-h = 224\n")
    code, out, _ = run(capsys, "clap-plan", "--config", str(cfg), "--width", "1024")
    assert code == 0
    assert out.startswith("1024,600,224,224,5")


def test_config_comments_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("# tiling plan\n\nwidth = 10\nheight = 1\npatch-w = 4\npatch-h = 1\n")
    code, out, _ = run(capsys, "clap-plan", "--config", str(cfg))
    assert code == 0
    assert out.strip() == "10,1,4,1,3,1,1,0,0|3|6;0"


def test_cctm_check_numerical_failure_exits_2(capsys, monkeypatch):
    from sodkit import cli

    monkeypatch.setattr(cli.fusion, "gradient_check", lambda seed, shape: 0.5)
    code, out, _ = run(capsys, "cctm-check", "--seed", "1")
    assert code == 2
    assert out.strip().endswith("fail")


# a step this large makes every perturbed objective non-finite, and the
# check reports that alone, without warnings
def test_cctm_check_non_finite_objective_exits_2_with_one_line(capsys, monkeypatch):
    from sodkit import fusion

    monkeypatch.setattr(fusion, "_FD_STEP", 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "cctm-check", "--seed", "0", "--shape", "1,3,5")
    assert (code, out, err) == (2, "", "sodkit: objective is non-finite near coordinate 0\n")


_RESULTS = [
    {"image_id": 1, "category_id": 1, "bbox": [0, 0, 4, 4], "score": 0.5},
    {"image_id": 1, "category_id": 1, "bbox": [0, 0, 100, 100], "score": 0.9},
]


@pytest.mark.parametrize("argv,code", [
    (["clap-plan", "--width", "800", "--height", "600", "--patch-w", "224", "--patch-h", "224"], 0),
    (["cctm-check", "--seed", "3", "--shape", "1,3,5"], 0),
    (["cctm-check", "--seed", "1", "FAIL"], 2),
    (["boost-table", "--sizes", "2x2,8x8,80x80"], 0),
    (["boost-train", "--n", "200", "--epochs", "3", "--beta", "0.05"], 0),
    (["score-stats", "--in", "RESULTS", "--edges", "0,32"], 0),
])
def test_out_flag_and_config_line_write_the_stdout_bytes(tmp_path, capsys, monkeypatch,
                                                         argv, code):
    from sodkit import cli

    if "FAIL" in argv:  # a failing gradient check still writes its line
        argv = argv[:-1]
        monkeypatch.setattr(cli.fusion, "gradient_check", lambda seed, shape: 0.5)
    results = tmp_path / "results.json"
    results.write_text(json.dumps(_RESULTS))
    argv = [str(results) if a == "RESULTS" else a for a in argv]
    got_code, out, err = run(capsys, *argv)
    assert (got_code, err) == (code, "")
    by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
    cfg = tmp_path / "out.cfg"
    cfg.write_text(f"out = {by_config}\n")
    assert run(capsys, *argv, "--out", str(by_flag)) == (code, "", "")
    assert run(capsys, *argv, "--config", str(cfg)) == (code, "", "")
    assert by_flag.read_bytes() == by_config.read_bytes() == out.encode()


@pytest.mark.parametrize("by_config", [False, True])
@pytest.mark.parametrize("out,needle", [
    ("", "--out: expected a file path, got ''"),
    ("nodir/x.csv", "--out: no directory 'nodir'"),
    ("DIR", "is a directory"),
])
def test_unusable_out_path_exits_1_before_any_work(tmp_path, capsys, monkeypatch,
                                                   out, needle, by_config):
    from sodkit import cli

    def never(*args):
        raise AssertionError("boost-train ran before --out was checked")

    monkeypatch.setattr(cli.harness, "synth_dataset", never)
    monkeypatch.setattr(cli.harness, "train_toy", never)
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path) if out == "DIR" else out
    if by_config:
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"out = {out}\n")
        argv = ["boost-train", "--config", str(cfg)]
    else:
        argv = ["boost-train", "--out", out]
    assert_rejected(*run(capsys, *argv), needle)
    assert not (tmp_path / "nodir").exists()


def test_failed_run_neither_creates_nor_truncates_out(tmp_path, capsys):
    results = tmp_path / "results.json"
    results.write_text(json.dumps([{"image_id": 1}]))
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("earlier output\n")
    for out in (kept, new):
        assert_rejected(*run(capsys, "score-stats", "--in", str(results), "--out", str(out)),
                        "entry 0: missing key 'category_id'")
    assert kept.read_text() == "earlier output\n"
    assert not new.exists()


def test_boost_train_without_flags_runs_the_default_run_config(capsys, monkeypatch):
    from sodkit import cli, harness

    seen = {}

    class Metrics:
        def csv_lines(self):
            return ["trained"]

    def synth_dataset(seed, n):
        seen["data"] = (seed, n)
        return "data"

    def train_toy(data, cfg):
        seen["cfg"] = cfg
        return Metrics()

    monkeypatch.setattr(cli.harness, "synth_dataset", synth_dataset)
    monkeypatch.setattr(cli.harness, "train_toy", train_toy)
    assert run(capsys, "boost-train") == (0, "trained\n", "")
    want = harness.RunConfig()
    assert seen["data"] == (want.seed, want.n)
    for f in dataclasses.fields(want):
        got, default = getattr(seen["cfg"], f.name), getattr(want, f.name)
        assert (type(got), got) == (type(default), default), f.name


def _flags_of(capsys, command):
    """The flags of a command's usage line, in order."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return re.findall(r"\[(--[\w-]+)", capsys.readouterr().out.split("\n\n")[0])


# boost-train's flags are RunConfig's fields: a renamed or added field shows
# here, and the hypothesis grammar above lists them by hand
@pytest.mark.parametrize("command,flags", [
    ("clap-plan", ["--width", "--height", "--patch-w", "--patch-h"]),
    ("cctm-check", ["--seed", "--shape"]),
    ("boost-table", ["--image", "--sizes", "--gamma", "--betas"]),
    ("boost-train", ["--loss", "--alpha", "--beta", "--gamma", "--epochs", "--lr", "--seed", "--n"]),
    ("score-stats", ["--in", "--threshold", "--edges"]),
])
def test_each_command_has_its_pinned_flags(capsys, command, flags):
    assert _flags_of(capsys, command) == ["--config", *flags, "--out"]


def test_console_script_entry_point():
    proc = fresh_python("-m", "sodkit.cli", "clap-plan", "--width", "800",
                        "--height", "800", "--patch-w", "224", "--patch-h", "224")
    assert proc.returncode == 0
    assert proc.stdout.startswith("800,800,224,224,4,4,38,38,")


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_answers_as_a_fresh_one(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("width = 800\nheight = 600\npatch-w = 224\npatch-h = 224\n")
    calls = [
        ["clap-plan", "--width", "800", "--height"],  # CliError mid-parse: no value
        ["boost-table", "--sizes", "2x2,8x8"],
        ["clap-plan", "--config", str(cfg)],
        ["score-stats", "--threshold", "0.4", "--bogus", "1"],
        ["cctm-check", "--seed", "3"],
        ["frobnicate"],
        ["clap-plan", "--config", str(cfg), "--width", "1024"],
    ]
    build_parser()
    reused = [_captured_main(argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_captured_main(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 1, 0, 1, 0]
