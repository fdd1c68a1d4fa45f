"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``acceptance N (<label>): PASS|FAIL`` line (run
pytest with ``-s`` to watch them stream) and asserts its stated tolerance
and runtime budget. The two learning checks in criterion 8 stand in for
full benchmark training, which needs GPU-days; the README's replication
recipe covers the full-scale configurations without accuracy assertions.
"""

import functools
import os
import time

import numpy as np
import pytest

from crmn.analysis import config_for, cost_report, lstm_step_ops
from crmn.cli import main
from crmn.data import split_train_val, synth_dataset
from crmn.gradcheck import check_full, check_lstm
from crmn.model import adapt_tap, build_crmn, build_resnet, max_lstm_width
from crmn.resnet import NetworkConfig
from crmn.tensor import Tensor, count_ops
from crmn.training import (PatienceController, TrainConfig, evaluate_model,
                           train)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def criterion(num, label, budget):
    """Print one verdict line per criterion and enforce the time budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - started
                assert elapsed < budget, (
                    f"criterion {num} took {elapsed:.1f}s, budget {budget}s")
            except BaseException:
                print(f"acceptance {num} ({label}): FAIL")
                raise
            print(f"acceptance {num} ({label}): PASS [{elapsed:.1f}s]")
        return wrapper
    return deco


# reference parameter grid, in millions, at 100 classes
GRID = [
    ("resnet", 134, 1, 2.12), ("resnet", 104, 1.5, 3.67),
    ("resnet", 92, 2, 5.74), ("resnet", 62, 4, 15.16),
    ("resnet", 32, 1, 0.47), ("resnet", 32, 1.5, 1.05),
    ("resnet", 32, 2, 1.86), ("resnet", 32, 4, 7.41),
    ("crmn", 32, 1, 2.16), ("crmn", 32, 1.5, 3.56),
    ("crmn", 32, 2, 5.19), ("crmn", 32, 4, 14.01),
]


@criterion(1, "parameter grid within 2%", budget=1.0)
def test_acceptance_1_parameter_grid():
    for kind, layers, fm_mult, millions in GRID:
        report = cost_report(kind, config_for(layers, fm_mult))
        got = report.params_millions
        assert abs(got - millions) / millions < 0.02, (kind, layers, fm_mult, got)
        assert round(got, 2) == millions, (kind, layers, fm_mult, got)


@criterion(2, "analytic count == instantiated scalars", budget=30.0)
def test_acceptance_2_structural_consistency():
    samples = [
        ("crmn", NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5)),
        ("resnet", NetworkConfig(n=1, base_maps=4, classes=3)),
        ("crmn", NetworkConfig(n=2, base_maps=8, classes=10, hidden_size=7,
                               shortcut="projection")),
        ("crmn", NetworkConfig(n=2, base_maps=64, classes=10, hidden_size=20)),
        ("resnet", NetworkConfig(n=3, base_maps=16, classes=100,
                                 variant="preactivation")),
        ("crmn", NetworkConfig(n=1, base_maps=16, classes=100,
                               hidden_size=100, learn_c0=False)),
    ]
    for kind, cfg in samples:
        cfg = cfg.validate()
        builder = build_crmn if kind == "crmn" else build_resnet
        instantiated = sum(t.size for _, t, _ in builder(cfg, seed=0).named_params())
        assert cost_report(kind, cfg).params_total == instantiated, (kind, cfg)


@criterion(3, "memory-path size independent of depth", budget=1.0)
def test_acceptance_3_constant_memory_parameters():
    for base in (16, 32):
        deltas = []
        for n in (3, 5, 8):
            crmn = cost_report("crmn", config_for(6 * n + 2, base / 16))
            resnet = cost_report("resnet", config_for(6 * n + 2, base / 16))
            deltas.append(crmn.params_total - resnet.params_total)
        assert deltas[0] == deltas[1] == deltas[2], (base, deltas)


@criterion(4, "finite-difference gradients < 1e-4", budget=120.0)
def test_acceptance_4_gradient_verification():
    lstm = check_lstm()  # 3 steps, width 8, hidden 5, 64-bit
    assert lstm.passed and lstm.worst < 1e-4, lstm.as_json()
    full = check_full()  # n=1, base 4, hidden 5, 3 classes, batch 2
    assert full.passed and full.worst < 1e-4, full.as_json()


@criterion(5, "depth, width and no-feedback invariants", budget=10.0)
def test_acceptance_5_architecture_invariants():
    for n, base in ((1, 4), (2, 8), (3, 16)):
        cfg = NetworkConfig(n=n, base_maps=base, classes=10,
                            hidden_size=5).validate()
        assert config_for(6 * n + 2, base / 16, classes=10).n == n
        width = base * 256
        assert max_lstm_width(cfg) == width
        model = build_crmn(cfg, seed=0)
        x = Tensor(np.random.default_rng(n).random((1, 3, 32, 32),
                                                   dtype=np.float32))
        _, parts = model.forward(x, return_parts=True)
        assert len(parts["taps"]) == 3 * n
        # the LSTM charges every tap the full width, the rest of it as padding
        adapted = {1: width, 2: width // 2, 3: width // 4}
        for t, tap in enumerate(parts["taps"]):
            assert adapt_tap(tap).shape[1] == adapted[t // n + 1], (t, tap.shape)

    cfg = NetworkConfig(n=2, base_maps=8, classes=10, hidden_size=9).validate()
    with_memory = build_crmn(cfg, seed=3)
    without = build_resnet(cfg, seed=3)
    x = Tensor(np.random.default_rng(4).random((2, 3, 32, 32), dtype=np.float32))
    _, a = with_memory.forward(x, return_parts=True)
    _, b = without.forward(x, return_parts=True)
    assert a["pool_out"].data.tobytes() == b["pool_out"].data.tobytes()
    for ta, tb in zip(a["taps"], b["taps"]):
        assert ta.data.tobytes() == tb.data.tobytes()


@criterion(6, "instrumented ops == closed-form estimate", budget=10.0)
def test_acceptance_6_flop_consistency():
    cfg = NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5).validate()
    for kind, builder in (("crmn", build_crmn), ("resnet", build_resnet)):
        model = builder(cfg, seed=0)
        x = Tensor(np.random.default_rng(0).random((1, 3, 32, 32),
                                                   dtype=np.float32))
        with count_ops() as measured:
            model.forward(x, training=False)
        expected = cost_report(kind, cfg, batch=1).flops
        parts = [v for k, v in expected.items() if k != "total"]
        for key in ("mults", "adds", "activations"):
            assert getattr(measured, key) == sum(p[key] for p in parts), (kind, key)
        assert measured.total == expected["total"], kind

    h = 100
    costs = [lstm_step_ops(i, h).total for i in (1024, 2048, 3072)]
    assert costs[1] - costs[0] == costs[2] - costs[1] == 1024 * 8 * h


@criterion(7, "scheduler decision traces", budget=1.0)
def test_acceptance_7_scheduler_state_machines():
    def run(controller, epochs):
        return [controller.observe(e, 1.0, 0.0) for e in range(1, epochs + 1)]

    joint = PatienceController((0.1, 0.01), patience=2, min_epochs_first_shift=1)
    assert [d.kind for d in run(joint, 5)] == \
        ["continue", "continue", "shift", "continue", "stop"]
    assert [r["epoch"] for r in joint.records] == [3, 3, 3]
    assert [r["group"] for r in joint.records] == ["trunk", "lstm", "head"]

    floored = PatienceController((0.1, 0.01, 0.001), patience=2,
                                 min_epochs_first_shift=6)
    kinds = [d.kind for d in run(floored, 10)]
    # stall reaches the patience at epoch 3 but the first shift waits for
    # epoch 6; the second shift then runs on the plain patience cadence
    assert kinds == ["continue"] * 5 + ["shift", "continue", "shift",
                                        "continue", "stop"]
    assert [r["epoch"] for r in floored.records[::3]] == [6, 8]

    rr = PatienceController((0.1, 0.01, 0.001), patience=1,
                            min_epochs_first_shift=1, rrlr=True)
    assert [d.kind for d in run(rr, 8)] == ["continue"] + ["shift"] * 6 + ["stop"]
    assert [r["group"] for r in rr.records] == ["trunk", "lstm", "head"] * 2
    assert [r["epoch"] for r in rr.records] == [2, 3, 4, 5, 6, 7]
    assert [r["lr"] for r in rr.records] == [0.01] * 3 + [0.001] * 3


@criterion(8, "desk-scale learning + documented recipe", budget=600.0)
def test_acceptance_8_desk_scale_learning():
    # (a) micro model drives 64 synthetic samples to >= 99% train accuracy
    ds = synth_dataset(4, 16, seed=1)
    cfg = NetworkConfig(n=1, base_maps=4, classes=4, hidden_size=5).validate()
    model = build_crmn(cfg, seed=1)
    tcfg = TrainConfig(lr_ladder=(0.05,), weight_decay=0.0, batch_size=8,
                       max_epochs=80, seed=1).validate()
    result = train(model, ds, tcfg, replay=[])
    assert result.final_epoch <= 200
    _, train_acc = evaluate_model(model, ds, batch_size=32)
    assert train_acc >= 0.99, train_acc

    # (b) 14-layer model beats the majority class by >= 30 points held out
    ds = synth_dataset(4, 150, seed=11)
    train_ds, val_ds = split_train_val(ds, 0.2, seed=5)
    cfg = NetworkConfig(n=2, base_maps=8, classes=4, hidden_size=100).validate()
    model = build_crmn(cfg, seed=2)
    tcfg = TrainConfig(lr_ladder=(0.05,), batch_size=48, max_epochs=6,
                       seed=2).validate()
    train(model, train_ds, tcfg, replay=[])
    _, val_acc = evaluate_model(model, val_ds, batch_size=60)
    majority = np.bincount(val_ds.labels, minlength=4).max() / len(val_ds)
    assert val_acc - majority >= 0.30, (val_acc, majority)

    # (c) the full-scale recipe is documented instead of asserted
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    assert "## Replication recipe" in text
    recipe = text.split("## Replication recipe", 1)[1]
    assert "--ladder 0.1,0.01,0.005,0.001" in recipe
    assert "--layers 134" in recipe and "--rrlr" in recipe
    assert "No accuracy figures are asserted" in recipe


@criterion(9, "byte-identical seeded histories", budget=300.0)
def test_acceptance_9_determinism(tmp_path):
    flags = ["train", "--synth", "3,24", "--synth-seed", "7",
             "--layers", "8", "--fm-mult", "0.25", "--hidden", "5",
             "--batch-size", "12", "--ladder", "0.05,0.01",
             "--patience", "2", "--min-epochs-first-shift", "1",
             "--seed", "3", "--val-fraction", "0.25", "--max-epochs", "3"]
    histories = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        assert main(flags + ["--out-dir", str(out)]) == 0
        histories.append((out / "history.csv").read_bytes())
    assert histories[0] == histories[1]
    assert len(histories[0].splitlines()) == 4  # header + 3 epochs
