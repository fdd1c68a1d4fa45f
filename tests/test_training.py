"""Optimizer arithmetic, patience state machine, training loop contracts."""

import math

import numpy as np
import pytest

from crmn.data import synth_dataset, split_train_val
from crmn.errors import ContractError, InputError, TrainingError
from crmn.model import CrmnModel, build_crmn
from crmn.resnet import NetworkConfig
from crmn.tensor import Tensor
from crmn.training import (
    PatienceController, SgdOptimizer, TrainConfig, evaluate_model,
    read_history, read_schedule, train, write_history, write_schedule,
)


def param(name, value, decays=True):
    t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
    return name, t, decays


def test_sgd_vanilla_step():
    name, t, _ = param("head.weight", [1.0, 2.0])
    opt = SgdOptimizer([(name, t, False)], momentum=0.0, weight_decay=0.0)
    t.grad = np.array([0.5, -1.0])
    opt.step({"trunk": 0.1, "lstm": 0.1, "head": 0.1})
    assert np.allclose(t.data, [0.95, 2.1], atol=1e-12)


def test_sgd_momentum_two_step_hand_trace():
    # constant gradient 0.5, lr 0.1, momentum 0.9:
    # v1 = -0.05, p1 = 0.95; v2 = 0.9*v1 - 0.05 = -0.095, p2 = 0.855
    name, t, _ = param("head.weight", [1.0])
    opt = SgdOptimizer([(name, t, False)], momentum=0.9, weight_decay=0.0)
    lrs = {"trunk": 0.1, "lstm": 0.1, "head": 0.1}
    t.grad = np.array([0.5])
    opt.step(lrs)
    assert t.data[0] == pytest.approx(0.95, rel=1e-12)
    t.grad = np.array([0.5])
    opt.step(lrs)
    assert t.data[0] == pytest.approx(0.855, rel=1e-12)


def test_weight_decay_only_touches_decaying_params():
    rows = [param("head.weight", [1.0], decays=True),
            param("head.bias", [1.0], decays=False)]
    opt = SgdOptimizer(rows, momentum=0.0, weight_decay=0.5)
    for _, t, _ in rows:
        t.grad = np.array([0.0])
    opt.step({"trunk": 0.1, "lstm": 0.1, "head": 0.1})
    assert rows[0][1].data[0] == pytest.approx(1.0 - 0.1 * 0.5, rel=1e-12)
    assert rows[1][1].data[0] == 1.0


def test_decay_all_overrides_exclusions():
    rows = [param("head.bias", [1.0], decays=False)]
    opt = SgdOptimizer(rows, momentum=0.0, weight_decay=0.5, decay_all=True)
    rows[0][1].grad = np.array([0.0])
    opt.step({"trunk": 0.1, "lstm": 0.1, "head": 0.1})
    assert rows[0][1].data[0] == pytest.approx(0.95, rel=1e-12)


def test_per_group_learning_rates_route_by_prefix():
    rows = [param("trunk.stem.weight", [1.0]),
            param("lstm.w_xi", [1.0]),
            param("head.weight", [1.0])]
    opt = SgdOptimizer(rows, momentum=0.0, weight_decay=0.0)
    for _, t, _ in rows:
        t.grad = np.array([1.0])
    opt.step({"trunk": 0.1, "lstm": 0.01, "head": 0.001})
    assert rows[0][1].data[0] == pytest.approx(0.9)
    assert rows[1][1].data[0] == pytest.approx(0.99)
    assert rows[2][1].data[0] == pytest.approx(0.999)


def test_non_finite_gradient_raises_training_error():
    rows = [param("head.weight", [1.0])]
    opt = SgdOptimizer(rows, momentum=0.0, weight_decay=0.0)
    rows[0][1].grad = np.array([np.nan])
    with pytest.raises(TrainingError):
        opt.step({"trunk": 0.1, "lstm": 0.1, "head": 0.1})


def test_zero_velocity_clears_momentum_memory():
    name, t, _ = param("head.weight", [1.0])
    opt = SgdOptimizer([(name, t, False)], momentum=0.9, weight_decay=0.0)
    t.grad = np.array([0.5])
    opt.step({"trunk": 0.1, "lstm": 0.1, "head": 0.1})
    opt.zero_velocity()
    t.grad = np.array([0.5])
    opt.step({"trunk": 0.1, "lstm": 0.1, "head": 0.1})
    # second step behaves like a fresh first step
    assert t.data[0] == pytest.approx(0.95 - 0.05, rel=1e-12)


def observe_many(controller, errors):
    return [controller.observe(epoch, err, 0.0)
            for epoch, err in enumerate(errors, start=1)]


def test_patience_joint_shift_trace():
    c = PatienceController((0.1, 0.01), patience=2, min_epochs_first_shift=1)
    kinds = [d.kind for d in observe_many(c, [1.0, 1.0, 1.0, 1.0, 1.0])]
    # epoch 1 improves on +inf; epochs 2-3 stall to the shift; 4-5 stall to stop
    assert kinds == ["continue", "continue", "shift", "continue", "stop"]
    assert [r["epoch"] for r in c.records] == [3, 3, 3]
    assert {r["group"] for r in c.records} == {"trunk", "lstm", "head"}
    assert all(r["lr"] == 0.01 for r in c.records)


def test_patience_floor_delays_only_the_first_shift():
    c = PatienceController((0.1, 0.01, 0.001), patience=2, min_epochs_first_shift=6)
    decisions = observe_many(c, [1.0] * 10)
    kinds = [d.kind for d in decisions]
    # stall hits the patience at epoch 3 but the floor holds until epoch 6;
    # the second shift is free to fire on its own schedule at epoch 8
    assert kinds == ["continue", "continue", "continue", "continue", "continue",
                     "shift", "continue", "shift", "continue", "stop"]
    assert [r["epoch"] for r in c.records[::3]] == [6, 8]


def test_patience_never_fires_while_improving():
    c = PatienceController((0.1, 0.01), patience=3, min_epochs_first_shift=1)
    errors = [1.0 - 0.05 * k for k in range(10)]
    assert all(d.kind == "continue" and d.improved for d in observe_many(c, errors))
    assert c.records == []
    assert c.best_epoch == 10


def test_accuracy_gain_counts_as_improvement():
    c = PatienceController((0.1, 0.01), patience=1, min_epochs_first_shift=1)
    first = c.observe(1, 0.5, 0.20)
    second = c.observe(2, 0.5, 0.25)  # same loss, better accuracy
    assert first.improved and second.improved


def test_round_robin_cycles_trunk_lstm_head():
    c = PatienceController((0.1, 0.01, 0.001), patience=1,
                           min_epochs_first_shift=1, rrlr=True)
    decisions = observe_many(c, [1.0] * 8)
    kinds = [d.kind for d in decisions]
    assert kinds == ["continue"] + ["shift"] * 6 + ["stop"]
    assert [r["group"] for r in c.records] == ["trunk", "lstm", "head"] * 2
    assert [r["epoch"] for r in c.records] == [2, 3, 4, 5, 6, 7]
    assert [r["lr"] for r in c.records] == [0.01] * 3 + [0.001] * 3
    # after each full cycle every group sits one rung lower
    assert c.index == {"trunk": 2, "lstm": 2, "head": 2}
    assert c.lrs() == {"trunk": 0.001, "lstm": 0.001, "head": 0.001}


def test_round_robin_two_rung_ladder_stops_after_one_cycle():
    c = PatienceController((0.1, 0.01), patience=1, min_epochs_first_shift=1,
                           rrlr=True)
    decisions = observe_many(c, [1.0] * 5)
    # one shift per group exhausts a two-rung ladder; the fourth attempt stops
    assert [d.kind for d in decisions] == \
        ["continue", "shift", "shift", "shift", "stop"]
    assert [r["group"] for r in c.records] == ["trunk", "lstm", "head"]


def test_round_robin_mid_cycle_lrs_diverge():
    c = PatienceController((0.1, 0.01), patience=1, min_epochs_first_shift=1,
                           rrlr=True)
    c.observe(1, 1.0, 0.0)
    c.observe(2, 1.0, 0.0)  # trunk shifts first
    assert c.lrs() == {"trunk": 0.01, "lstm": 0.1, "head": 0.1}


def test_floor_stops_the_ladder_early():
    c = PatienceController((0.1, 0.01, 0.001), patience=1,
                           min_epochs_first_shift=1, lr_floor=0.01)
    decisions = observe_many(c, [1.0] * 3)
    assert [d.kind for d in decisions] == ["continue", "shift", "stop"]
    assert c.lrs()["trunk"] == 0.01  # 0.001 sits below the floor, never used


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(lr_ladder=(0.01, 0.1)).validate()  # must decrease
    with pytest.raises(InputError):
        TrainConfig(batch_size=1).validate()
    cfg = TrainConfig(lr_ladder=(0.1, 0.01), batch_size=4).validate()
    assert cfg.floor == 0.01


def test_train_rejects_impossible_setups(tiny_synth):
    model = build_crmn(NetworkConfig(n=1, base_maps=4, classes=3,
                                     hidden_size=5).validate(), seed=0)
    with pytest.raises(ContractError):
        train(model, tiny_synth, TrainConfig(batch_size=100, max_epochs=1).validate(),
              replay=[])
    with pytest.raises(ContractError):
        train(model, tiny_synth, TrainConfig(batch_size=12, max_epochs=1).validate())


def run_tiny(seed, epochs=3, replay=None, ds=None):
    ds = ds if ds is not None else synth_dataset(3, 12, seed=7)
    train_ds, val_ds = split_train_val(ds, 0.25, seed=0)
    cfg = NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5).validate()
    model = build_crmn(cfg, seed=seed)
    tcfg = TrainConfig(lr_ladder=(0.05, 0.01), batch_size=9, patience=2,
                       min_epochs_first_shift=1, max_epochs=epochs,
                       seed=seed).validate()
    result = train(model, train_ds, tcfg,
                   val_ds=None if replay is not None else val_ds, replay=replay)
    return model, result, val_ds


def test_seeded_training_is_reproducible():
    _, first, _ = run_tiny(seed=3)
    _, second, _ = run_tiny(seed=3)
    assert first.history == second.history
    _, other, _ = run_tiny(seed=4)
    assert other.history != first.history


def test_history_rows_carry_epoch_lrs_and_metrics():
    _, result, _ = run_tiny(seed=1, epochs=2)
    assert [row["epoch"] for row in result.history] == [1, 2]
    for row in result.history:
        assert row["lr_trunk"] == row["lr_lstm"] == row["lr_head"] == 0.05
        assert math.isfinite(row["train_loss"])
        assert 0.0 <= row["val_acc"] <= 1.0
    assert result.stopped == "budget"


def test_best_checkpoint_is_restored_after_search():
    model, result, val_ds = run_tiny(seed=2, epochs=3)
    best_row = result.history[result.best_epoch - 1]
    loss, acc = evaluate_model(model, val_ds, batch_size=9)
    assert loss == best_row["val_error"]
    assert acc == best_row["val_acc"]


def test_replay_reproduces_the_searched_run():
    ds = synth_dataset(3, 12, seed=7)
    _, searched, _ = run_tiny(seed=5, ds=ds)
    _, replayed, _ = run_tiny(seed=5, replay=searched.schedule, ds=ds)
    for s_row, r_row in zip(searched.history, replayed.history):
        assert r_row["train_loss"] == s_row["train_loss"]
        assert r_row["lr_trunk"] == s_row["lr_trunk"]
        assert math.isnan(r_row["val_error"])  # replay skips validation


LR_COLUMNS = ("lr_trunk", "lr_lstm", "lr_head")


def run_shifting(rrlr, replay=None):
    """The micro model on a ladder whose first rung overshoots, so it shifts early."""
    train_ds, val_ds = split_train_val(synth_dataset(3, 12, seed=7), 0.25, seed=0)
    cfg = NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5).validate()
    tcfg = TrainConfig(lr_ladder=(0.5, 0.01, 0.001), batch_size=9, patience=1,
                       min_epochs_first_shift=1, max_epochs=6, seed=5,
                       rrlr=rrlr).validate()
    return train(build_crmn(cfg, seed=5), train_ds, tcfg,
                 val_ds=None if replay is not None else val_ds, replay=replay)


@pytest.mark.parametrize("rrlr", [False, True], ids=["joint", "rrlr"])
def test_replay_reloads_what_the_search_reloaded(rrlr):
    searched = run_shifting(rrlr)
    replayed = run_shifting(rrlr, replay=searched.schedule)
    for s_row, r_row in zip(searched.history, replayed.history):
        assert r_row["train_loss"] == s_row["train_loss"], s_row["epoch"]
        assert [r_row[k] for k in LR_COLUMNS] == [s_row[k] for k in LR_COLUMNS]
    # the schedule must reload something, or the comparison shows nothing
    reloads = [r.get("reload") for r in searched.schedule]
    assert any(e is not None for e in reloads)
    assert replayed.best_epoch == max(e for e in reloads if e is not None)


def test_a_shift_that_reloads_clears_momentum(monkeypatch):
    # the first step after such a shift starts from zero velocity, like the run's first
    fresh = []
    step = SgdOptimizer.step

    def record(self, lrs, context=""):
        fresh.append(not any(v.any() for v in self.velocity.values()))
        return step(self, lrs, context)

    monkeypatch.setattr(SgdOptimizer, "step", record)
    searched = run_shifting(False)
    reloading = {r["epoch"] for r in searched.schedule if r["reload"] is not None}
    assert reloading
    per_epoch = len(fresh) // searched.final_epoch
    expected = [0] + [e * per_epoch for e in sorted(reloading) if e < searched.final_epoch]
    assert [i for i, f in enumerate(fresh) if f] == expected


def test_records_without_reload_only_shift(monkeypatch):
    searched = run_shifting(False)
    stripped = [{k: v for k, v in r.items() if k != "reload"} for r in searched.schedule]
    assert stripped and stripped != searched.schedule
    monkeypatch.setattr(CrmnModel, "snapshot", lambda self: pytest.fail("snapshot taken"))
    monkeypatch.setattr(CrmnModel, "restore", lambda self, snap: pytest.fail("reloaded"))
    replayed = run_shifting(False, replay=stripped)
    assert replayed.best_epoch is None
    for s_row, r_row in zip(searched.history, replayed.history):
        assert [r_row[k] for k in LR_COLUMNS] == [s_row[k] for k in LR_COLUMNS]


def test_history_csv_roundtrip(tmp_path):
    _, result, _ = run_tiny(seed=6, epochs=2)
    path = tmp_path / "history.csv"
    write_history(path, result.history)
    assert read_history(path) == result.history


def test_history_rejects_foreign_columns(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("epoch,loss\n1,0.5\n")
    with pytest.raises(InputError):
        read_history(path)


def test_schedule_json_roundtrip(tmp_path):
    records = [{"epoch": 3, "group": "trunk", "lr": 0.01},
               {"epoch": 5, "group": "head", "lr": 0.001}]
    path = tmp_path / "schedule.json"
    write_schedule(path, records)
    assert read_schedule(path) == records
    path.write_text('[{"epoch": 1, "group": "stem", "lr": 0.1}]')
    with pytest.raises(InputError):
        read_schedule(path)


def test_evaluate_model_covers_remainder_batches(tiny_synth):
    cfg = NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5).validate()
    model = build_crmn(cfg, seed=0)
    full_loss, full_acc = evaluate_model(model, tiny_synth, batch_size=36)
    split_loss, split_acc = evaluate_model(model, tiny_synth, batch_size=10)
    assert split_acc == full_acc
    assert split_loss == pytest.approx(full_loss, rel=1e-5)
