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
    grad = numeric_gradient(lambda copies: (copies ** 2).sum(axis=1), x)
    assert np.allclose(grad, 2.0 * x.data, atol=1e-9)
    assert np.array_equal(x.data, [1.0, -2.0, 3.0])  # only copies are probed


def test_numeric_gradient_moves_one_scalar_per_copy_16_copies_a_call():
    """35 scalars: calls of 16, 16 and 3 copies, each +eps then -eps; every copy differs
    from the tensor in one scalar, and every scalar is moved once each way."""
    x = Tensor(np.arange(35.0).reshape(5, 7), requires_grad=True, dtype=np.float64)
    stacks = []

    def f(copies):
        stacks.append(copies.copy())
        return copies.sum(axis=(1, 2))

    numeric_gradient(f, x, eps=0.5)
    assert [s.shape for s in stacks] == [(16, 5, 7)] * 4 + [(3, 5, 7)] * 2
    moved = {0.5: [], -0.5: []}
    for call, stack in enumerate(stacks):
        delta = (stack - x.data).reshape(len(stack), -1)
        for row in delta:
            (idx,) = np.flatnonzero(row)
            assert row[idx] == (0.5 if call % 2 == 0 else -0.5)
            moved[row[idx]].append(idx)
    assert moved[0.5] == moved[-0.5] == list(range(35))


def test_check_tensors_puts_the_tensor_data_back_even_when_a_probe_raises():
    x = Tensor(np.array([0.5, 1.5, 2.5]), requires_grad=True, dtype=np.float64)
    data, probes = x.data, []

    def loss_fn():
        probes.append(x.data is not data)
        if sum(probes) == 2:
            raise RuntimeError("probe failed")
        return sum_all(mul(x, x))

    with pytest.raises(RuntimeError, match="probe failed"):
        check_tensors("square", loss_fn, [x])
    assert x.data is data
    assert np.array_equal(data, [0.5, 1.5, 2.5])
    assert check_tensors("square", lambda: sum_all(mul(x, x)), [x]).max_rel_err < 1e-8
    assert x.data is data


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


@pytest.mark.parametrize("entry", ["batch_norm_train", "batch_norm_eval"])
def test_a_batch_norm_entry_reads_the_same_without_the_entries_before_it(monkeypatch, entry):
    """Every call of the norm gets fresh copies of the layer's initial running estimates,
    so no earlier entry's probes move what the eval entry scores against."""
    after_all = next(e for e in check_ops(seed=0).entries if e.name == entry)
    real = crmn.gradcheck.check_tensors
    monkeypatch.setattr(crmn.gradcheck, "check_tensors", lambda name, *args: (
        real(name, *args) if name == entry else GradEntry(name, 0.0, 0)))
    alone = next(e for e in check_ops(seed=0).entries if e.name == entry)
    assert alone == after_all


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
    block_run = ResidualBlock.run  # the block op of the Values replay

    def record_block(block, x, ops):
        ran.append(block)
        return block_run(block, x, ops)

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
            copy = tensor.data.copy()
            copy.reshape(-1)[idx] = saved + step
            ran.clear()
            (replayed,) = f(copy[None])  # a one-copy stack
            assert ran == expected_blocks, name
            flat[idx] = saved + step
            whole = loss(model.forward(seen["x"], training=True), seen["labels"]).item()
            flat[idx] = saved
            assert replayed == whole, (name, step)
        probed.append(name)
        return np.zeros_like(tensor.data)

    monkeypatch.setattr(crmn.gradcheck, "build_crmn", capture_model)
    monkeypatch.setattr(crmn.gradcheck, "softmax_cross_entropy", capture_labels)
    monkeypatch.setattr(ResidualBlock, "run", record_block)
    monkeypatch.setattr(crmn.gradcheck, "numeric_gradient", probe)
    monkeypatch.setattr(crmn.gradcheck, "_cpus", lambda: 1)  # the spies see only this process
    check_full()
    assert probed == [n for n, _, _ in seen["model"].named_params()]


def test_a_forwarding_wrapper_keeps_check_full_stacked(monkeypatch):
    """A loss wrapped as a span wrapper wraps it is still called with 16 copies at a time,
    and no probe runs a taped convolution or LSTM step."""
    real = crmn.gradcheck.numeric_gradient
    probing, taped, calls, sizes = [], [], {}, {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            if probing:
                taped.append(name)
            return fn(*args, **kwargs)
        return wrapped

    def wrapped_probe(f, tensor, eps=DEFAULT_EPS):
        def w(*a):
            calls[id(tensor)] += 1
            return f(*a)

        calls[id(tensor)], sizes[id(tensor)] = 0, tensor.size
        probing.append(tensor)
        try:
            return real(w, tensor, eps)
        finally:
            probing.pop()

    monkeypatch.setattr(crmn.lstm, "lstm_step", spy("lstm_step", crmn.lstm.lstm_step))
    monkeypatch.setattr(crmn.layers, "conv2d", spy("conv2d", crmn.layers.conv2d))
    monkeypatch.setattr(crmn.gradcheck, "numeric_gradient", wrapped_probe)
    monkeypatch.setattr(crmn.gradcheck, "_cpus", lambda: 1)  # the spies see only this process
    report = check_full(seed=0)
    assert taped == []
    assert len(calls) == len(report.entries)
    assert all(calls[i] == 2 * -(-sizes[i] // 16) for i in calls)


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


# every architecture switch the micro model leaves at its default
SWITCHES = [
    {"variant": "preactivation", "shortcut": "projection"},
    {"variant": "original", "shortcut": "projection"},
    {"output_gate": "sigmoid", "learn_c0": False},
    {"variant": "preactivation"},
]


@pytest.mark.parametrize("switches", [{}] + SWITCHES)
def test_stacked_losses_equal_whole_model_losses(monkeypatch, switches):
    """Each architecture switch, every probed tensor: each stacked loss is the whole
    model's loss bit for bit."""
    cfg = micro_config()
    monkeypatch.setattr(crmn.gradcheck, "micro_config", lambda: replace(cfg, **switches))
    seen = capture_probes(monkeypatch)
    model, x, labels = seen["model"], seen["x"], seen["labels"]
    assert all(getattr(model.cfg, k) == v for k, v in switches.items())
    names = {id(t): n for n, t, _ in model.named_params()}
    assert sorted(names[id(t)] for t, _ in seen["probes"]) == sorted(names.values())
    rng = np.random.default_rng(3)
    for tensor, f in seen["probes"]:
        flat = tensor.data.reshape(-1)
        for step in (DEFAULT_EPS, -DEFAULT_EPS):
            picks, copies = _sampled_stacks(tensor, rng, step)
            with count_ops() as ops:  # the stacked replay charges nothing
                stacked = f(copies)
            assert ops.total == 0
            for k, idx in enumerate(picks):
                saved = flat[idx]
                flat[idx] = saved + step
                whole = softmax_cross_entropy(model.forward(x, training=True), labels).item()
                assert stacked[k] == whole, (names[id(tensor)], idx, step)
                flat[idx] = saved


def test_numeric_gradient_is_the_same_in_chunks_of_7_and_16(monkeypatch):
    """Chunks of at most 7 leave a partial last chunk on most tensors checked here; each
    probe scores its own copy, so the gradient does not depend on the chunking."""
    seen = capture_probes(monkeypatch)
    names = {id(t): n for n, t, _ in seen["model"].named_params()}
    checked = []
    for tensor, f in seen["probes"]:
        if names[id(tensor)] not in ("trunk.stem.conv.weight", "trunk.stage2.block0.bn1.scale",
                                     "trunk.stage3.block0.conv2.weight", "lstm.w_hf",
                                     "lstm.p_o", "lstm.h0", "head.bias"):
            continue
        before = tensor.data.copy()
        tensor.data.flags.writeable = False  # only copies are probed
        grads = []
        try:
            for k in (7, 16):
                monkeypatch.setattr(crmn.gradcheck, "_PROBES", k)
                grads.append(numeric_gradient(f, tensor))
        finally:
            tensor.data.flags.writeable = True
        assert np.array_equal(*grads), names[id(tensor)]
        assert np.array_equal(tensor.data, before)
        checked.append(names[id(tensor)])
    assert len(checked) == 7


def test_numeric_gradient_probes_a_transposed_tensor():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((4, 3)).T, requires_grad=True)  # not C-contiguous
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    entry = check_tensors("mm", lambda: sum_all(matmul(a, b)), [a, b])
    assert entry.max_rel_err < 1e-8


def test_numeric_gradient_probes_a_read_only_view():
    v = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    rows = rows_from_vector(v, 3)  # a broadcast view
    assert not rows.data.flags.writeable
    grad = numeric_gradient(lambda copies: copies.sum(axis=(1, 2)), rows)
    assert grad.shape == (3, 2)
    assert np.allclose(grad, 1.0, rtol=0, atol=1e-9)


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
    """The process named by ``where`` raises at the first tensor it probes; the other one
    is slowed, so that each process probes at least one tensor whichever indices it draws.
    check_full raises the error as it was raised and reaps its child at once: a child
    still probing when the parent raises is killed, not waited for."""
    parent = os.getpid()

    def probe(f, tensor, eps=DEFAULT_EPS):
        side = "parent" if os.getpid() == parent else "child"
        if side == where:
            raise ContractError(f"a tensor probed in the {side}")
        time.sleep(0.02 if side == "parent" else 2.0)
        return np.zeros_like(tensor.data)

    monkeypatch.setattr(crmn.gradcheck, "_cpus", lambda: 2)
    monkeypatch.setattr(crmn.gradcheck, "numeric_gradient", probe)
    began = time.monotonic()
    with pytest.raises(ContractError) as raised:
        check_full(seed=0)
    assert time.monotonic() - began < 2.0  # no 2 s child probe was waited out
    assert str(raised.value) == f"a tensor probed in the {where}"
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
