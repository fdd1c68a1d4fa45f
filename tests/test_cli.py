"""Command-line interface: subcommands, artifacts, exit codes."""

import json
import os

import numpy as np
import pytest

import crmn.lstm
from crmn.checkpoint import save_tensors
from crmn.cli import main
from crmn.data import ImageDataset, save_raw_dataset, synth_dataset
from crmn.tensor import active_tape


TRAIN_FLAGS = ["--layers", "8", "--fm-mult", "0.25", "--hidden", "5",
               "--batch-size", "12", "--ladder", "0.05,0.01",
               "--patience", "2", "--min-epochs-first-shift", "1",
               "--seed", "3", "--val-fraction", "0.25"]


def run_train(out_dir, *extra, epochs=2):
    argv = ["train", "--synth", "3,24", "--synth-seed", "7",
            "--max-epochs", str(epochs), "--out-dir", str(out_dir)]
    argv += TRAIN_FLAGS + list(extra)
    return main(argv)


def test_analyze_emits_the_reference_report(capsys):
    assert main(["analyze", "--kind", "crmn", "--layers", "32",
                 "--fm-mult", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["millions"] == 14.01
    assert payload["params"]["total"] == 14_013_816
    assert payload["config"]["classes"] == 100  # analyze defaults to 100
    assert payload["flops_ratio_vs_resnet"] > 1.0


def test_analyze_table_prints_twelve_rows(capsys):
    assert main(["analyze", "--table"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 14
    assert out[2].split()[0] == "ResNet"
    assert out[-1].split()[0] == "CRMN"


def test_analyze_pretty_sends_table_to_stderr(capsys):
    assert main(["analyze", "--kind", "resnet", "--layers", "32",
                 "--fm-mult", "1", "--pretty"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout stays machine-readable
    assert "Parameters" in captured.err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--layers", "31", "--fm-mult", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--layers", "32", "--fm-mult", "0.3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out-dir", "x"])  # no dataset source given
    assert exc.value.code == 2


def test_train_writes_all_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir, "--normalize", "mean_pixel") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epochs"] == 2
    assert set(summary["artifacts"]) == {"checkpoint.crmn", "history.csv",
                                         "schedule.json", "norm_stats.npy",
                                         "manifest.json"}
    for name in summary["artifacts"]:
        assert (out_dir / name).exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["kind"] == "crmn"
    assert manifest["network"]["hidden_size"] == 5
    assert manifest["mode"] == "schedule-search"
    assert manifest["flatten_order"] == "map,row,col"
    assert manifest["dataset"]["classes"] == 3
    history = (out_dir / "history.csv").read_text().strip().splitlines()
    assert len(history) == 3  # header plus one row per epoch


def test_seeded_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_train(a) == 0
    assert run_train(b) == 0
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "checkpoint.crmn").read_bytes() == (b / "checkpoint.crmn").read_bytes()


def test_replay_matches_the_searched_history(tmp_path):
    searched = tmp_path / "searched"
    assert run_train(searched, epochs=4) == 0
    replayed = tmp_path / "replayed"
    assert run_train(replayed, "--schedule-replay",
                     str(searched / "schedule.json"), epochs=4) == 0
    s_rows = (searched / "history.csv").read_text().splitlines()
    r_rows = (replayed / "history.csv").read_text().splitlines()
    for s_row, r_row in zip(s_rows, r_rows):
        # replay has no validation numbers; the trained columns must agree
        assert r_row.split(",")[:5] == s_row.split(",")[:5]
    manifest = json.loads((replayed / "manifest.json").read_text())
    assert manifest["mode"] == "schedule-replay"


def test_evaluate_scores_a_checkpoint(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(out_dir / "checkpoint.crmn"),
                 "--synth", "3,8", "--synth-seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 24
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["loss"] > 0.0


def test_evaluate_on_a_raw_container(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    capsys.readouterr()
    data = tmp_path / "eval.crtd"
    save_raw_dataset(synth_dataset(3, 4, seed=5), data)
    assert main(["evaluate", "--checkpoint", str(out_dir / "checkpoint.crmn"),
                 "--data", str(data), "--format", "raw"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 12


def test_evaluate_requires_stats_for_mean_pixel(tmp_path):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--checkpoint", str(out_dir / "checkpoint.crmn"),
              "--synth", "3,4", "--normalize", "mean_pixel"])
    assert exc.value.code == 2


def test_missing_and_malformed_files_exit_three(tmp_path, capsys):
    assert main(["evaluate", "--checkpoint", str(tmp_path / "nope.crmn"),
                 "--synth", "3,4"]) == 3
    junk = tmp_path / "junk.crtd"
    junk.write_bytes(b"not a dataset")
    assert main(["evaluate", "--checkpoint", str(tmp_path / "nope.crmn"),
                 "--data", str(junk), "--format", "raw"]) == 3
    assert main(["export-curves", str(tmp_path / "missing.csv")]) == 3
    capsys.readouterr()


def test_evaluate_rejects_a_checkpoint_without_a_config(tmp_path, capsys):
    path = tmp_path / "noconfig.crmn"
    save_tensors(path, {"kind": "crmn"}, [])
    assert main(["evaluate", "--checkpoint", str(path), "--synth", "3,4"]) == 3
    assert "bad model config" in capsys.readouterr().err


def test_dataset_extent_mismatch_exits_three(tmp_path, capsys):
    # the model is built for 32x32 inputs; a 16x16 dataset fails at the
    # first batch with a DimensionError, which must not escape as a traceback
    data = tmp_path / "small.crtd"
    save_raw_dataset(synth_dataset(3, 8, seed=1, extent=16), data)
    argv = ["train", "--data", str(data), "--format", "raw",
            "--max-epochs", "1", "--out-dir", str(tmp_path / "run")] + TRAIN_FLAGS
    assert main(argv) == 3
    assert "expects b*3*32*32 input" in capsys.readouterr().err


def test_gradcheck_ops_passes(capsys):
    assert main(["gradcheck", "--scope", "ops"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["worst"] < 1e-4


def test_gradcheck_reports_failure_with_exit_four(capsys, monkeypatch):
    original = crmn.lstm.tanh

    def leaky_tanh(x):
        out = original(x)
        tape = active_tape()
        if tape is not None and tape._entries and tape._entries[-1][0] is out:
            _, fn = tape._entries[-1]
            tape._entries[-1] = (out, lambda g, accum: fn(g * 1.02, accum))
        return out

    monkeypatch.setattr(crmn.lstm, "tanh", leaky_tanh)
    assert main(["gradcheck", "--scope", "lstm"]) == 4
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_export_curves_long_format(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir, epochs=3) == 0
    capsys.readouterr()
    curves = tmp_path / "curves.csv"
    assert main(["export-curves", str(out_dir / "history.csv"),
                 "--out", str(curves)]) == 0
    lines = curves.read_text().strip().splitlines()
    assert lines[0] == "series,epoch,value"
    assert len(lines) == 1 + 6 * 3  # six series, three epochs
    series = {line.split(",")[0] for line in lines[1:]}
    assert series == {"lr_trunk", "lr_lstm", "lr_head",
                      "train_loss", "val_error", "val_acc"}


def test_export_curves_defaults_to_stdout(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir) == 0
    capsys.readouterr()
    assert main(["export-curves", str(out_dir / "history.csv")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "series,epoch,value"


def test_train_on_raw_container_adopts_its_classes(tmp_path, capsys):
    data = tmp_path / "train.crtd"
    save_raw_dataset(synth_dataset(4, 12, seed=11), data)
    out_dir = tmp_path / "run"
    argv = ["train", "--data", str(data), "--format", "raw",
            "--max-epochs", "1", "--out-dir", str(out_dir)] + TRAIN_FLAGS
    assert main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["network"]["classes"] == 4
    assert manifest["dataset"]["classes"] == 4


def test_train_takes_its_class_count_from_the_dataset_only(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_train(tmp_path / "run", "--classes", "7")
    assert exc.value.code == 2
    data = tmp_path / "one.crtd"
    save_raw_dataset(ImageDataset(np.zeros((4, 3, 32, 32), np.float32),
                                  np.zeros(4, np.int64), 1), data)
    argv = ["train", "--data", str(data), "--format", "raw",
            "--max-epochs", "1", "--out-dir", str(tmp_path / "run")] + TRAIN_FLAGS
    assert main(argv) == 3
    assert "1 classes" in capsys.readouterr().err


def test_deterministic_env_flag_lands_in_the_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CRMN_DETERMINISTIC", "1")
    out_dir = tmp_path / "run"
    assert run_train(out_dir, epochs=1) == 0
    capsys.readouterr()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["deterministic"] is True


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("crmn ")
