"""The gradient checker itself: oracles, report plumbing, sabotage detection."""

import json
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import crmn.gradcheck
import crmn.layers
import crmn.lstm
from crmn.errors import ContractError, InputError
from crmn.gradcheck import (
    DEFAULT_EPS, DEFAULT_TOLERANCE, GradEntry, GradReport, check_full, check_lstm, check_ops,
    check_tensors, micro_config, numeric_gradient, relative_error, run_scope,
)
from crmn.layers import conv2d
from crmn.model import build_crmn, build_resnet
from crmn.resnet import SHORTCUTS, VARIANTS, NetworkConfig, ResidualBlock
from crmn.tensor import (Tape, Tensor, active_tape, backward, count_ops, matmul, mul,
                         rows_from_vector, softmax_cross_entropy, sum_all)


def test_relative_error_uses_a_floor_near_zero():
    err = relative_error(np.array([1e-9]), np.array([0.0]), floor=1e-3)
    assert err[0] == pytest.approx(1e-6)
    err = relative_error(np.array([2.0]), np.array([1.0]))
    assert err[0] == pytest.approx(0.5)


def test_numeric_gradient_of_a_quadratic():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True, dtype=np.float64)
    grad = numeric_gradient(lambda: float((x.data ** 2).sum()), x)
    assert np.allclose(grad, 2.0 * x.data, atol=1e-9)
    assert np.array_equal(x.data, [1.0, -2.0, 3.0])  # probes are undone


def test_check_tensors_flags_a_broken_gradient():
    x = Tensor(np.array([0.5, 1.5]), requires_grad=True, dtype=np.float64)

    def loss_fn():
        return sum_all(mul(mul(x, x), Tensor(np.array([1.0, 1.0]))))

    good = check_tensors("square", loss_fn, [x])
    assert good.max_rel_err < 1e-8
    # corrupt the recorded backward of the final multiply
    def broken_loss():
        out = loss_fn()
        tape = active_tape()
        if tape is not None:  # numeric probes run with no tape open
            tensor, fn = tape._entries[-1]
            tape._entries[-1] = (tensor, lambda g, accum: fn(g * 1.01, accum))
        return out

    bad = check_tensors("square-broken", broken_loss, [x])
    assert bad.max_rel_err > 1e-3


def test_ops_scope_passes_tightly():
    report = check_ops(seed=0)
    assert report.passed
    assert report.worst < 1e-6
    names = {e.name for e in report.entries}
    assert {"matmul", "conv2d", "batch_norm_train", "softmax_cross_entropy"} <= names
    payload = report.as_json()
    assert payload["scope"] == "ops"
    assert payload["passed"] is True
    assert all(e["checked"] > 0 for e in payload["entries"])


def test_the_per_tap_conv_forward_matches_its_finite_differences(monkeypatch):
    """A 16-map 16 x 16 conv reaches ``_TAP_MIN_MACS`` exactly, so its forward takes
    ``_tap_sums``; every probe of the weight's 2,304 scalars scores that forward. Kept
    out of check_ops, whose own bound is tighter."""
    calls = []
    tap_sums = crmn.layers._tap_sums
    monkeypatch.setattr(crmn.layers, "_tap_sums",
                        lambda *args: calls.append(None) or tap_sums(*args))
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 16, 16, 16)))
    w = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
    r = Tensor(rng.standard_normal((1, 16, 16, 16)))
    assert 16 * 16 * 16 * 16 == crmn.layers._TAP_MIN_MACS
    entry = check_tensors("conv2d_per_tap", lambda: sum_all(mul(conv2d(x, w), r)), [w])
    assert entry.checked == 2304
    assert len(calls) == 1 + 2 * 2304  # the taped forward and two per probe
    assert entry.max_rel_err < DEFAULT_TOLERANCE


def test_ops_scope_covers_every_op_a_training_step_records(monkeypatch):
    """Every closure a float64 training step records, over both kinds, variants and
    shortcuts, belongs to an op with a check_ops entry; the LSTM step's two closures
    are check_lstm's."""
    owners = set()
    record = Tape.record

    def spy(tape, out, backward_fn):
        owners.add(backward_fn.__qualname__.split(".<locals>")[0])
        record(tape, out, backward_fn)

    monkeypatch.setattr(Tape, "record", spy)
    x = Tensor(np.random.default_rng(0).random((2, 3, 8, 8)))
    for build in (build_crmn, build_resnet):
        for variant in VARIANTS:
            for shortcut in SHORTCUTS:
                cfg = NetworkConfig(n=1, base_maps=2, classes=3, hidden_size=3, input_extent=8,
                                    variant=variant, shortcut=shortcut).validate()
                model = build(cfg, seed=0, dtype=np.float64)
                with Tape():
                    backward(softmax_cross_entropy(model.forward(x, training=True), [0, 2]))
    monkeypatch.undo()
    assert "lstm_step" in owners
    checked = {e.name for e in check_ops(seed=0).entries}
    unchecked = {op for op in owners - {"lstm_step"}
                 if not any(name == op or name.startswith(op + "_") for name in checked)}
    assert not unchecked


def test_lstm_scope_covers_every_parameter():
    report = check_lstm(seed=0)
    assert report.passed and report.worst < 1e-6
    named = {e.name for e in report.entries}
    for pname in ("w_xi", "w_ho", "p_o", "b_c", "h0", "c0"):
        assert any(pname in n for n in named)
    checked = sum(e.checked for e in report.entries)
    assert checked > 17  # all cell parameters plus the step inputs


def test_lstm_scope_detects_sabotaged_backward(monkeypatch):
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
    report = check_lstm(seed=0)
    assert not report.passed


def test_full_scope_replays_each_loss_bit_identically(monkeypatch):
    """Every loss check_full probes equals a whole-model loss, from the right block."""
    seen = {}
    build, loss = crmn.gradcheck.build_crmn, crmn.gradcheck.softmax_cross_entropy

    def capture_model(*args, **kwargs):
        seen["model"] = model = build(*args, **kwargs)
        forward = model.forward

        def keep_input(x, *a, **kw):  # the analytic pass sees the probed batch first
            seen.setdefault("x", x)
            return forward(x, *a, **kw)

        model.forward = keep_input
        return model

    def capture_labels(logits, labels):
        seen["labels"] = labels
        return loss(logits, labels)

    ran = []
    block_forward = ResidualBlock.forward

    def record_block(block, x, training):
        ran.append(block)
        return block_forward(block, x, training)

    probed = []

    def probe(f, tensor, eps=DEFAULT_EPS):
        model = seen["model"]
        blocks = model.trunk.blocks
        name = next(n for n, t, _ in model.named_params() if t is tensor)
        first = next((j for j, b in enumerate(blocks) if name.startswith(
            f"trunk.stage{b.spec.stage}.block{b.spec.index}.")), 0)
        expected_blocks = blocks[first:] if name.startswith("trunk.") else []
        flat = tensor.data.reshape(-1)
        idx = flat.size // 2
        saved = flat[idx]
        for step in (eps, -eps):
            flat[idx] = saved + step
            ran.clear()
            replayed = f()
            assert ran == expected_blocks, name
            whole = loss(model.forward(seen["x"], training=True), seen["labels"]).item()
            assert replayed == whole, (name, step)
        flat[idx] = saved
        probed.append(name)
        return np.zeros_like(tensor.data)

    monkeypatch.setattr(crmn.gradcheck, "build_crmn", capture_model)
    monkeypatch.setattr(crmn.gradcheck, "softmax_cross_entropy", capture_labels)
    monkeypatch.setattr(ResidualBlock, "forward", record_block)
    monkeypatch.setattr(crmn.gradcheck, "numeric_gradient", probe)
    monkeypatch.setattr(crmn.gradcheck, "_cpus", lambda: 1)  # the spies see only this process
    check_full()
    assert probed == [n for n, _, _ in seen["model"].named_params()]


def capture_probes(monkeypatch):
    """Run check_full's set-up only: its model, batch, labels and each probed (tensor, f)."""
    seen = {"probes": []}
    build, loss = crmn.gradcheck.build_crmn, crmn.gradcheck.softmax_cross_entropy

    def capture_model(*args, **kwargs):
        seen["model"] = model = build(*args, **kwargs)
        forward = model.forward

        def keep_input(x, *a, **kw):  # the analytic pass sees the probed batch
            seen.setdefault("x", x)
            return forward(x, *a, **kw)

        model.forward = keep_input
        return model

    def capture_labels(logits, labels):
        seen.setdefault("labels", labels)
        return loss(logits, labels)

    def keep(f, tensor, eps=DEFAULT_EPS):
        seen["probes"].append((tensor, f))
        return np.zeros_like(tensor.data)

    monkeypatch.setattr(crmn.gradcheck, "build_crmn", capture_model)
    monkeypatch.setattr(crmn.gradcheck, "softmax_cross_entropy", capture_labels)
    monkeypatch.setattr(crmn.gradcheck, "numeric_gradient", keep)
    monkeypatch.setattr(crmn.gradcheck, "_cpus", lambda: 1)  # the spies see only this process
    check_full(seed=0)
    monkeypatch.undo()
    return seen


def _sampled_stacks(tensor, rng, step):
    """Scalars 0, the last and five random ones of tensor, and a stack of copies probing each."""
    flat = tensor.data.reshape(-1)
    picks = np.unique(np.r_[0, flat.size - 1, rng.integers(0, flat.size, 5)])
    copies = np.tile(flat, (picks.size, 1))
    copies[np.arange(picks.size), picks] += step
    return picks, copies.reshape((picks.size,) + tensor.shape)


def test_stacked_losses_equal_whole_model_losses(monkeypatch):
    """Every probed tensor: each stacked loss is the whole model's loss bit for bit."""
    seen = capture_probes(monkeypatch)
    model, x, labels = seen["model"], seen["x"], seen["labels"]
    names = {id(t): n for n, t, _ in model.named_params()}
    assert sorted(names[id(t)] for t, _ in seen["probes"]) == sorted(names.values())
    rng = np.random.default_rng(3)
    for tensor, f in seen["probes"]:
        flat = tensor.data.reshape(-1)
        for step in (DEFAULT_EPS, -DEFAULT_EPS):
            picks, copies = _sampled_stacks(tensor, rng, step)
            with count_ops() as ops:  # the stacked path charges nothing
                stacked = f.stacked(copies)
            assert ops.total == 0
            for k, idx in enumerate(picks):
                saved = flat[idx]
                flat[idx] = saved + step
                whole = softmax_cross_entropy(model.forward(x, training=True), labels).item()
                assert stacked[k] == f() == whole, (names[id(tensor)], idx, step)
                flat[idx] = saved


# every architecture switch the micro model leaves at its default
SWITCHES = [
    {"variant": "preactivation", "shortcut": "projection"},
    {"variant": "original", "shortcut": "projection"},
    {"output_gate": "sigmoid", "learn_c0": False},
    {"variant": "preactivation"},
]


@pytest.mark.parametrize("switches", SWITCHES)
def test_stacked_trunk_losses_equal_their_loop_on_every_switch(monkeypatch, switches):
    """Each architecture switch: stacked trunk losses equal the one-at-a-time suffix losses."""
    cfg = micro_config()
    monkeypatch.setattr(crmn.gradcheck, "micro_config", lambda: replace(cfg, **switches))
    seen = capture_probes(monkeypatch)
    model = seen["model"]
    assert all(getattr(model.cfg, k) == v for k, v in switches.items())
    trunk = {id(t): n for n, t in model.trunk.named_params()}
    rng = np.random.default_rng(4)
    probed = []
    for tensor, f in seen["probes"]:
        if id(tensor) not in trunk:
            continue
        flat = tensor.data.reshape(-1)
        for step in (DEFAULT_EPS, -DEFAULT_EPS):
            picks, copies = _sampled_stacks(tensor, rng, step)
            stacked = f.stacked(copies)
            for k, idx in enumerate(picks):
                saved = flat[idx]
                flat[idx] = saved + step
                assert stacked[k] == f(), (trunk[id(tensor)], idx, step)
                flat[idx] = saved
        probed.append(trunk[id(tensor)])
    assert sorted(probed) == sorted(trunk.values())


@pytest.mark.parametrize("switches", [{}] + SWITCHES)
def test_check_full_stacks_probes_by_the_maps_they_add(monkeypatch, switches):
    """K per stacked call: 4 for the stem, block 0 and a final norm (each replays stage 1),
    8 for stage 2, 16 for stage 3, and 32 for the LSTM and head."""
    cfg = replace(micro_config(), **switches)
    per_call = []

    def record(stacked, tensor, eps, k):
        per_call.append(k)
        return iter(())  # nothing evaluated: only the sizing is under test

    monkeypatch.setattr(crmn.gradcheck, "micro_config", lambda: cfg)
    monkeypatch.setattr(crmn.gradcheck, "_stacked_probes", record)
    monkeypatch.setattr(crmn.gradcheck, "_cpus", lambda: 1)  # the spies see only this process
    check_full(seed=0)
    names = [n for n, _, _ in build_crmn(cfg, seed=0, dtype=np.float64).named_params()]
    want = {"trunk.stage2": 8, "trunk.stage3": 16, "lstm": 32, "head": 32}
    assert per_call == [next((k for p, k in want.items() if n.startswith(p + ".")), 4)
                        for n in names]


def test_numeric_gradient_stacked_equals_its_loop(monkeypatch):
    """Chunks of at most 7 leave a partial last chunk on most tensors checked here."""
    seen = capture_probes(monkeypatch)
    monkeypatch.setattr(crmn.gradcheck, "_PROBES", 7)
    names = {id(t): n for n, t, _ in seen["model"].named_params()}
    checked = []
    for tensor, f in seen["probes"]:
        if names[id(tensor)] not in ("trunk.stem.conv.weight", "trunk.stage2.block0.bn1.scale",
                                     "trunk.stage3.block0.conv2.weight", "lstm.w_hf",
                                     "lstm.p_o", "lstm.h0", "head.bias"):
            continue
        before = tensor.data.copy()
        tensor.data.flags.writeable = False  # the stacked path probes copies only
        try:
            stacked = numeric_gradient(f, tensor)
        finally:
            tensor.data.flags.writeable = True
        looped = numeric_gradient(lambda: f(), tensor)
        assert np.array_equal(stacked, looped), names[id(tensor)]
        assert np.array_equal(tensor.data, before)
        checked.append(names[id(tensor)])
    assert len(checked) == 7


def test_numeric_gradient_probes_a_transposed_tensor():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((4, 3)).T, requires_grad=True)  # not C-contiguous
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    entry = check_tensors("mm", lambda: sum_all(matmul(a, b)), [a, b])
    assert entry.max_rel_err < 1e-8


def test_numeric_gradient_refuses_a_read_only_tensor():
    v = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    rows = rows_from_vector(v, 3)  # a broadcast view
    with pytest.raises(ContractError):
        numeric_gradient(lambda: float(rows.data.sum()), rows)


def test_full_scope_flags_exactly_a_sabotaged_lstm_tensor(monkeypatch):
    """Scale the w_xi gradient accumulated in the cell-state closure by 1.01."""
    original = crmn.lstm.lstm_step

    def leaky_step(p, x, state):
        out = original(p, x, state)
        tape = active_tape()
        if tape is not None:  # the numeric probes run with no tape open
            c_new, fn = tape._entries[-2]
            assert c_new is out.c

            def leaky(g, accum):
                fn(g, lambda t, v: accum(t, v * 1.01 if t is p.w_xi else v))

            tape._entries[-2] = (c_new, leaky)
        return out

    real, build = crmn.gradcheck.numeric_gradient, crmn.gradcheck.build_crmn
    trunk = set()

    def keep_trunk(*args, **kwargs):
        model = build(*args, **kwargs)
        trunk.update(id(t) for _, t in model.trunk.named_params())
        return model

    def back_half_only(f, tensor, eps=DEFAULT_EPS):
        # the leak reaches no trunk gradient, so skip the trunk's probes
        if id(tensor) in trunk:
            return tensor.grad
        return real(f, tensor, eps)

    monkeypatch.setattr(crmn.lstm, "lstm_step", leaky_step)
    monkeypatch.setattr(crmn.gradcheck, "build_crmn", keep_trunk)
    monkeypatch.setattr(crmn.gradcheck, "numeric_gradient", back_half_only)
    report = check_full(seed=0)
    failed = [e.name for e in report.entries if e.max_rel_err >= report.tolerance]
    assert failed == ["lstm.w_xi"]
    assert len(report.entries) > 30


def test_full_scope_flags_exactly_a_sabotaged_trunk_tensor(monkeypatch):
    """Scale the stage-3 conv2 weight gradient in its conv closure by 1.01."""
    original, build = crmn.layers.conv2d, crmn.gradcheck.build_crmn
    seen = {}

    def keep_model(*args, **kwargs):
        seen["model"] = build(*args, **kwargs)
        return seen["model"]

    def leaky_conv(x, weight, stride=1, **kwargs):
        out = original(x, weight, stride, **kwargs)
        tape = active_tape()
        # the numeric probes run with no tape open, and the stacked ones never call conv2d
        if tape is not None and weight is seen["model"].trunk.blocks[-1].conv2.weight:
            o, fn = tape._entries[-1]
            assert o is out
            tape._entries[-1] = (o, lambda g, accum: fn(
                g, lambda t, v: accum(t, v * 1.01 if t is weight else v)))
        return out

    real = crmn.gradcheck.numeric_gradient

    def trunk_only(f, tensor, eps=DEFAULT_EPS):
        # the leak reaches no LSTM or head gradient, so skip the back half's probes
        if all(t is not tensor for _, t in seen["model"].trunk.named_params()):
            return tensor.grad
        return real(f, tensor, eps)

    monkeypatch.setattr(crmn.gradcheck, "build_crmn", keep_model)
    monkeypatch.setattr(crmn.layers, "conv2d", leaky_conv)
    monkeypatch.setattr(crmn.gradcheck, "numeric_gradient", trunk_only)
    report = check_full(seed=0)
    failed = [e.name for e in report.entries if e.max_rel_err >= report.tolerance]
    assert failed == ["trunk.stage3.block0.conv2.weight"]
    assert len(report.entries) > 30


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(scope="module")
def one_cpu_reports():
    """check_full's JSON report, serialized, at seed 0 (it passes) and 1 (it fails) on one CPU."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crmn.gradcheck, "_cpus", lambda: 1)
        return {seed: json.dumps(check_full(seed).as_json()) for seed in (0, 1)}


def counted_forks(monkeypatch):
    """A list that gains one entry per ``os.fork`` this process calls."""
    calls, fork = [], os.fork

    def spy():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    return calls


@needs_fork
@pytest.mark.parametrize("seed", [0, 1])
def test_forked_check_full_reports_the_one_cpu_report(monkeypatch, one_cpu_reports, seed):
    """On 2 CPUs this process and one forked child score the tensors, to the same report."""
    monkeypatch.setattr(crmn.gradcheck, "_cpus", lambda: 2)
    forks = counted_forks(monkeypatch)
    assert json.dumps(check_full(seed).as_json()) == one_cpu_reports[seed]
    assert len(forks) == 1


@needs_fork
@pytest.mark.parametrize("where", ["child", "parent"])
def test_an_error_in_either_process_reaches_the_caller_and_no_child_is_left(monkeypatch,
                                                                            where):
    """The process named by ``where`` raises when it probes lstm.w_xi; the other one is
    slowed so that it does not take that tensor. check_full raises the error as it was
    raised and reaps its child at once: a child still probing when the parent raises
    is killed, not waited for."""
    parent, build, seen = os.getpid(), crmn.gradcheck.build_crmn, {}

    def keep_model(*args, **kwargs):
        seen["model"] = build(*args, **kwargs)
        return seen["model"]

    def probe(f, tensor, eps=DEFAULT_EPS):
        side = "parent" if os.getpid() == parent else "child"
        if side != where:
            time.sleep(0.02 if side == "parent" else 2.0)
        elif tensor is seen["model"].lstm.w_xi:
            raise ContractError(f"w_xi probed in the {side}")
        return np.zeros_like(tensor.data)

    monkeypatch.setattr(crmn.gradcheck, "_cpus", lambda: 2)
    monkeypatch.setattr(crmn.gradcheck, "build_crmn", keep_model)
    monkeypatch.setattr(crmn.gradcheck, "numeric_gradient", probe)
    began = time.monotonic()
    with pytest.raises(ContractError) as raised:
        check_full(seed=0)
    assert time.monotonic() - began < 2.0  # no 2 s child probe was waited out
    assert str(raised.value) == f"w_xi probed in the {where}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("why", ["another thread", "no os.fork"])
def test_check_full_runs_serially_where_it_must_not_fork(monkeypatch, one_cpu_reports, why):
    """A second live thread, or no ``os.fork``, keeps check_full in this process."""
    monkeypatch.setattr(crmn.gradcheck, "_cpus", lambda: 2)
    forks = counted_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if why == "another thread":
        thread.start()
    else:
        monkeypatch.delattr(os, "fork")
    try:
        report = check_full(seed=0)
    finally:
        release.set()
        if thread.ident is not None:
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert json.dumps(report.as_json()) == one_cpu_reports[0]


def test_micro_config_is_the_documented_one():
    cfg = micro_config()
    assert (cfg.n, cfg.base_maps, cfg.classes, cfg.hidden_size) == (1, 4, 3, 5)


def test_run_scope_dispatch():
    assert run_scope("ops").scope == "ops"
    with pytest.raises(InputError):
        run_scope("everything")


def test_report_worst_and_passed_logic():
    report = GradReport("demo", [GradEntry("a", 2e-5, 4), GradEntry("b", 9e-6, 2)])
    assert report.worst == 2e-5
    assert report.passed
    report.entries.append(GradEntry("c", 5e-4, 1))
    assert not report.passed


def test_a_nan_gradient_fails_the_check():
    assert relative_error(np.array([np.nan, 1.0]), np.array([1.0, np.nan])).tolist() == [
        np.inf, np.inf]
    x = Tensor(np.array([0.5, 1.5]), requires_grad=True, dtype=np.float64)

    def nan_backward_loss():
        out = sum_all(mul(x, x))
        tape = active_tape()
        if tape is not None:  # numeric probes run with no tape open
            tensor, _ = tape._entries[0]
            tape._entries[0] = (tensor, lambda g, accum: accum(x, np.full(2, np.nan)))
        return out

    entry = check_tensors("square-nan", nan_backward_loss, [x])
    assert entry.max_rel_err == np.inf
    assert not GradReport("demo", [GradEntry("a", 0.0, 1), entry]).passed


def test_a_hand_built_nan_entry_fails_the_report():
    report = GradReport("x", [GradEntry("a", 0.0, 1), GradEntry("b", float("nan"), 1)])
    assert not report.passed
    assert not GradReport("x", [GradEntry("b", float("nan"), 1)]).passed
