"""The gradient checker itself: oracles, report plumbing, sabotage detection."""

import numpy as np
import pytest

import crmn.gradcheck
import crmn.lstm
from crmn.errors import InputError
from crmn.gradcheck import (
    DEFAULT_EPS, GradEntry, GradReport, check_full, check_lstm, check_ops,
    check_tensors, micro_config, numeric_gradient, relative_error, run_scope,
)
from crmn.resnet import ResidualBlock
from crmn.tensor import Tensor, active_tape, mul, softmax_cross_entropy, sum_all


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
    check_full()
    assert probed == [n for n, _, _ in seen["model"].named_params()]


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
