"""Command-line interface: subcommands, artifacts, exit codes."""

import json
import os

import numpy as np
import pytest

import crmn.checkpoint
import crmn.cli
import crmn.lstm
from crmn.checkpoint import load_model, save_model, save_tensors
from crmn.cli import main
from crmn.data import (ImageDataset, normalize, save_raw_dataset, split_train_val,
                       synth_dataset)
from crmn.model import build_crmn
from crmn.resnet import NetworkConfig
from crmn.tensor import active_tape
from crmn.training import evaluate_model


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


@pytest.mark.parametrize("argv", [["--table", "default-grid"], ["--table=default-grid"],
                                  ["--table", "other"]])
def test_analyze_table_takes_no_value(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *argv])
    assert exc.value.code == 2


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


def test_analyze_rejects_a_multiplier_whose_counts_overflow_a_float(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--fm-mult", "1e300"])
    assert exc.value.code == 2
    assert "too large to report" in capsys.readouterr().err


def test_train_writes_all_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(out_dir, "--normalize", "mean_pixel") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epochs"] == 2
    assert set(summary["artifacts"]) == {"checkpoint.crmn", "history.csv",
                                         "schedule.json", "manifest.json"}
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


HISTORY_HEADER = b"epoch,lr_trunk,lr_lstm,lr_head,train_loss,val_error,val_acc\n"
BAD_SCHEDULES = {
    "invalid-json": b'[{"epoch": 2,',
    "not-a-record": b"[5]",
    "not-a-list": b"{}",
    "text-lr": b'[{"epoch": 2, "group": "trunk", "lr": "x"}]',
    "nan-lr": b'[{"epoch": 2, "group": "trunk", "lr": NaN}]',
    "zero-lr": b'[{"epoch": 2, "group": "trunk", "lr": 0}]',
    "epoch-zero": b'[{"epoch": 0, "group": "trunk", "lr": 0.01}]',
    "float-epoch": b'[{"epoch": 2.0, "group": "trunk", "lr": 0.01}]',
    "late-reload": b'[{"epoch": 2, "group": "trunk", "lr": 0.01, "reload": 2}]',
    "reload-going-back": b'[{"epoch": 4, "group": "trunk", "lr": 0.01, "reload": 3},'
                         b' {"epoch": 5, "group": "trunk", "lr": 0.001, "reload": 1}]',
    "random-bytes": bytes(range(256)),
}
BAD_HISTORIES = {
    "empty": b"",
    "random-bytes": bytes(range(256)),
    "short-row": HISTORY_HEADER + b"1,0.05,0.05\n",
    "long-row": HISTORY_HEADER + b"1,0.05,0.05,0.05,0.9,0.8,0.3,7\n",
    "text-number": HISTORY_HEADER + b"1,0.05,0.05,0.05,x,0.8,0.3\n",
}


@pytest.mark.parametrize("blob", BAD_SCHEDULES.values(), ids=BAD_SCHEDULES)
def test_malformed_schedules_exit_three(tmp_path, capsys, blob):
    schedule = tmp_path / "schedule.json"
    schedule.write_bytes(blob)
    assert run_train(tmp_path / "run", "--schedule-replay", str(schedule), epochs=1) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("blob", BAD_HISTORIES.values(), ids=BAD_HISTORIES)
def test_malformed_histories_exit_three(tmp_path, capsys, blob):
    history = tmp_path / "history.csv"
    history.write_bytes(blob)
    assert main(["export-curves", str(history)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_flip_without_augment_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(crmn.cli, "_load_dataset", lambda *a: pytest.fail("data read"))
    with pytest.raises(SystemExit) as exc:
        run_train(tmp_path / "run", "--flip")
    assert exc.value.code == 2
    assert "--flip applies only with --augment" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("ladder", ["0.1,x", "", "0.1,,0.01"])
def test_an_unparseable_ladder_is_a_usage_error(tmp_path, capsys, monkeypatch, ladder):
    monkeypatch.setattr(crmn.cli, "_load_dataset", lambda *a: pytest.fail("data read"))
    with pytest.raises(SystemExit) as exc:
        run_train(tmp_path / "run", "--ladder", ladder)
    assert exc.value.code == 2
    assert "--ladder expects comma-separated numbers" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["train", "--seed", "-1"], 2),
    (["train", "--synth-seed", "-1"], 2),
    (["evaluate", "--checkpoint", "x.crmn", "--synth", "3,4", "--synth-seed", "-1"], 2),
    (["gradcheck", "--seed", "-1"], 2),
    (["gradcheck", "--eps", "0"], 2),
    (["gradcheck", "--eps=-1e-5"], 2),
    (["gradcheck", "--eps", "nan"], 2),
    (["gradcheck", "--eps", "inf"], 2),
    (["analyze", "--fm-mult", "nan"], 2),
    (["analyze", "--fm-mult", "inf"], 2),
    (["train", "--val-fraction", "nan"], 3),
    (["train", "--val-fraction", "inf"], 3),
])
def test_out_of_range_numeric_flags_exit_cleanly(tmp_path, capsys, argv, code):
    out_dir = tmp_path / "run"
    if argv[0] == "train":
        argv = ["train", "--synth", "3,24", "--max-epochs", "1",
                "--out-dir", str(out_dir)] + TRAIN_FLAGS + argv[1:]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == code
        assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("ladder", ["nan", "0.1,nan", "inf,0.1"])
def test_a_non_finite_ladder_exits_three(tmp_path, capsys, ladder):
    assert run_train(tmp_path / "run", "--ladder", ladder) == 3
    assert "ladder must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, value", [
    ("--momentum", "-1"), ("--momentum", "nan"), ("--weight-decay", "-0.5"),
    ("--weight-decay", "inf"), ("--min-epochs-first-shift", "-1"),
])
def test_a_bad_optimizer_setting_exits_three_before_training(tmp_path, capsys, monkeypatch,
                                                             flag, value):
    monkeypatch.setattr(crmn.cli, "train", lambda *a, **k: pytest.fail("training ran"))
    assert run_train(tmp_path / "run", flag, value) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.fixture
def micro_checkpoint(tmp_path):
    """A checkpoint of an untrained micro CRMN for 3-class 32x32 data."""
    path = tmp_path / "micro.crmn"
    save_model(build_crmn(NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5), seed=1),
               path)
    return str(path)


@pytest.mark.parametrize("size", ["0", "-1"])
def test_evaluate_rejects_batch_sizes_below_one(micro_checkpoint, capsys, size):
    assert main(["evaluate", "--checkpoint", micro_checkpoint, "--synth", "3,4",
                 "--batch-size", size]) == 3
    captured = capsys.readouterr()
    assert "batch_size must be >= 1" in captured.err
    assert captured.out == ""


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


def evaluation(model, ds):
    """The JSON ``crmn evaluate`` prints for ``model`` on ``ds`` at its default batch."""
    loss, acc = evaluate_model(model, ds, 100)
    return json.dumps({"loss": loss, "accuracy": acc, "count": len(ds)}, indent=2) + "\n"


@pytest.mark.parametrize("mode", ["mean_pixel", "gcn"])
def test_evaluate_repeats_the_training_normalization(tmp_path, capsys, mode):
    """From the checkpoint alone: the training split's mean image for mean_pixel, each
    image's own statistics for gcn."""
    out_dir = tmp_path / "run"
    assert run_train(out_dir, "--normalize", mode) == 0
    capsys.readouterr()
    ckpt = str(out_dir / "checkpoint.crmn")
    assert main(["evaluate", "--checkpoint", ckpt, "--synth", "3,8", "--synth-seed", "9"]) == 0
    train_ds, _ = split_train_val(synth_dataset(3, 24, seed=7), 0.25, seed=3)
    _, mean_image = normalize(train_ds, mode)
    ds, _ = normalize(synth_dataset(3, 8, seed=9), mode, stats=mean_image)
    assert capsys.readouterr().out == evaluation(load_model(ckpt), ds)


def micro_arrays():
    """Manifest fields and arrays of an untrained micro CRMN, with no normalization field."""
    model = build_crmn(NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5), seed=1)
    return {"kind": "crmn", "config": model.cfg.as_dict()}, model.named_arrays()


def test_evaluate_reads_a_checkpoint_without_a_normalization_as_none(tmp_path, capsys):
    path = tmp_path / "old.crmn"
    save_tensors(path, *micro_arrays())
    assert main(["evaluate", "--checkpoint", str(path), "--synth", "3,4"]) == 0
    assert capsys.readouterr().out == evaluation(load_model(path), synth_dataset(3, 4))


@pytest.mark.parametrize("mode, mean_image", [
    ("whitening", None),
    ("mean_pixel", None),
    ("mean_pixel", np.zeros((3, 16, 16), np.float32)),
    ("mean_pixel", np.zeros((3, 32, 32))),
], ids=["unknown", "no-mean-image", "wrong-shape", "wrong-dtype"])
def test_evaluate_rejects_a_bad_normalization(tmp_path, capsys, mode, mean_image):
    extra, arrays = micro_arrays()
    if mean_image is not None:
        arrays.append(("input.mean_image", mean_image))
    path = tmp_path / "norm.crmn"
    save_tensors(path, {**extra, "normalize": mode}, arrays)
    assert main(["evaluate", "--checkpoint", str(path), "--synth", "3,4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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


@pytest.mark.parametrize("config", [{"input_extent": 2**31}, {"n": 300, "base_maps": 512}],
                         ids=["extent", "depth-width"])
def test_evaluate_rejects_a_config_larger_than_the_file(tmp_path, capsys, monkeypatch, config):
    model = build_crmn(NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5), seed=1)
    path = tmp_path / "big.crmn"
    save_tensors(path, {"kind": "crmn", "config": {**model.cfg.as_dict(), **config}},
                 model.named_arrays())
    monkeypatch.setattr(crmn.checkpoint, "build_crmn", lambda *a, **k: pytest.fail("model built"))
    assert main(["evaluate", "--checkpoint", str(path), "--synth", "3,4"]) == 3
    assert "more parameters than" in capsys.readouterr().err


def test_dataset_extent_mismatch_exits_three(tmp_path, capsys, monkeypatch):
    # the model is built for 32x32 inputs; a 16x16 dataset is rejected right
    # after loading, before a model is built or anything is written
    data = tmp_path / "small.crtd"
    save_raw_dataset(synth_dataset(3, 8, seed=1, extent=16), data)
    monkeypatch.setattr(crmn.cli, "build_crmn", lambda *a, **k: pytest.fail("model built"))
    argv = ["train", "--data", str(data), "--format", "raw",
            "--max-epochs", "1", "--out-dir", str(tmp_path / "run")] + TRAIN_FLAGS
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "expects b*3*32*32 input" in err
    assert "3*16*16" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "analyze"])
@pytest.mark.parametrize("flag", [["--hidden", "5"], ["--output-gate", "sigmoid"]])
def test_lstm_flags_on_a_resnet_are_usage_errors(tmp_path, capsys, command, flag):
    argv = [command, "--kind", "resnet", "--layers", "8"] + flag
    if command == "train":
        argv += ["--synth", "3,8", "--out-dir", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "only to --kind crmn" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_resnet_records_the_default_lstm_fields(capsys):
    # without the flags, a ResNet's config carries the same defaults as before
    assert main(["analyze", "--kind", "resnet", "--layers", "8"]) == 0
    network = json.loads(capsys.readouterr().out)["config"]
    assert (network["hidden_size"], network["output_gate"]) == (100, "tanh")


def test_gradcheck_ops_passes(capsys):
    assert main(["gradcheck", "--scope", "ops"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["worst"] < 1e-4


def test_gradcheck_reports_failure_with_exit_four(capsys, monkeypatch):
    original = crmn.lstm.lstm_step

    def leaky_step(p, x, state):
        # scale the gradient into both closures the step just recorded by 2%
        out = original(p, x, state)
        tape = active_tape()
        if tape is not None and tape._entries and tape._entries[-1][0] is out.h:
            tape._entries[-2:] = [(o, lambda g, accum, fn=fn: fn(g * 1.02, accum))
                                  for o, fn in tape._entries[-2:]]
        return out

    monkeypatch.setattr(crmn.lstm, "lstm_step", leaky_step)
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("crmn ")
