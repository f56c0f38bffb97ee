import json

import pytest

from sodkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_clap_plan_degenerate_exits_1(capsys):
    code, out, err = run(capsys, "clap-plan", "--width", "6", "--height", "1",
                         "--patch-w", "4", "--patch-h", "1")
    assert code == 1
    assert "degenerate" in err


def test_clap_plan_missing_flag_exits_1(capsys):
    code, _, err = run(capsys, "clap-plan", "--width", "100")
    assert code == 1
    assert "required" in err


def test_cctm_check_passes(capsys):
    code, out, _ = run(capsys, "cctm-check", "--seed", "3", "--shape", "1,3,5")
    assert code == 0
    seed, shape, err, verdict = out.strip().split(",")
    assert (seed, shape, verdict) == ("3", "1x3x5", "pass")
    assert float(err) < 1e-4


@pytest.mark.parametrize("shape", ["1,0,5", "1,3,0", "0,3,5"])
def test_cctm_check_rejects_empty_shape(capsys, shape):
    code, out, err = run(capsys, "cctm-check", "--shape", shape)
    assert code == 1
    assert out == ""
    assert err.startswith("sodkit: ") and err.count("\n") == 1
    assert ">= 1" in err


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
    text = a.read_text()
    assert text.startswith("# boost-train loss=boost")
    assert "bucket,count,recall,mean_positive_weight" in text


def test_boost_train_rejects_unknown_loss(capsys):
    code, _, err = run(capsys, "boost-train", "--loss", "hinge", "--n", "10",
                       "--epochs", "1")
    assert code == 1
    assert "loss" in err


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


def test_score_stats_malformed_input_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                 "bbox": [1, 2, 3], "score": 0.5}]))
    code, _, err = run(capsys, "score-stats", "--in", str(path))
    assert code == 1
    assert "entry 0" in err


def test_score_stats_missing_file_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "score-stats", "--in", str(tmp_path / "nope.json"))
    assert code == 1


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


def test_config_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("wdith = 800\n")
    code, _, err = run(capsys, "clap-plan", "--config", str(cfg))
    assert code == 1
    assert "wdith" in err


def test_config_comments_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("# tiling plan\n\nwidth = 10\nheight = 1\npatch-w = 4\npatch-h = 1\n")
    code, out, _ = run(capsys, "clap-plan", "--config", str(cfg))
    assert code == 0
    assert out.strip() == "10,1,4,1,3,1,1,0,0|3|6;0"


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_cctm_check_numerical_failure_exits_2(capsys, monkeypatch):
    from sodkit import cli

    monkeypatch.setattr(cli.fusion, "gradient_check", lambda seed, shape: 0.5)
    code, out, _ = run(capsys, "cctm-check", "--seed", "1")
    assert code == 2
    assert out.strip().endswith("fail")


def test_console_script_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "sodkit.cli", "clap-plan", "--width", "800",
         "--height", "800", "--patch-w", "224", "--patch-h", "224"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("800,800,224,224,4,4,38,38,")
