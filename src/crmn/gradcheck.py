"""Finite-difference verification of the backward pass.

All checks run at 64-bit with central differences (default step 1e-5) and
score each element by |analytic - numeric| / max(|analytic|, |numeric|,
1e-3); the floor keeps near-zero gradients from inflating the ratio.

Three scopes:
  ops   - each primitive op on small random shapes
  lstm  - a full 3-step cell (width 8, hidden 5) through every parameter
  full  - an end-to-end micro model (n=1, base 4, hidden 5, 3 classes,
          batch 2, training mode)

The full sweep exploits the model's one-way dataflow, caching the taps of
the analytic pass, their adapted forms, the LSTM state after each and the
pool features:
  trunk suffix - perturbing a parameter of block j changes nothing before
                 block j, so its numeric evaluations rerun the trunk from
                 block j on block j-1's cached output, then the LSTM from
                 its cached state after tap j-1 over the fresh taps, then
                 the head; the stem and block 0 run the whole model
  back half    - perturbing LSTM or head parameters cannot change trunk
                 activations, so those evaluations replay only the LSTM and
                 the head on the cached adapted taps and pool features
Every replayed loss is bit-identical to a whole-model evaluation. The
analytic side is still one whole-graph backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .layers import (BatchNorm, Dense, batch_norm, conv2d, global_avg_pool,
                     meanpool2x2)
from .lstm import init_lstm, initial_state, lstm_step, run_sequence
from .model import adapt_tap, build_crmn, max_lstm_width
from .resnet import NetworkConfig, trunk_forward
from .tensor import (Tape, Tensor, add, concat_cols, matmul, mul, pad_cols,
                     relu, sigmoid, softmax_cross_entropy, sum_all, tanh)

DEFAULT_EPS = 1e-5
ERROR_FLOOR = 1e-3
DEFAULT_TOLERANCE = 1e-4


def relative_error(analytic, numeric, floor=ERROR_FLOOR):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / scale


def numeric_gradient(f, tensor, eps=DEFAULT_EPS):
    """Central-difference gradient of scalar-valued f() w.r.t. tensor."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        saved = flat[idx]
        flat[idx] = saved + eps
        f_plus = f()
        flat[idx] = saved - eps
        f_minus = f()
        flat[idx] = saved
        gflat[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


@dataclass
class GradEntry:
    name: str
    max_rel_err: float
    checked: int


@dataclass
class GradReport:
    scope: str
    entries: list = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def worst(self):
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self):
        return self.worst < self.tolerance

    def as_json(self):
        return {
            "scope": self.scope,
            "tolerance": self.tolerance,
            "worst": self.worst,
            "passed": self.passed,
            "entries": [{"name": e.name, "max_rel_err": e.max_rel_err,
                         "checked": e.checked} for e in self.entries],
        }


def check_tensors(name, loss_fn, tensors, eps=DEFAULT_EPS):
    """Compare one backward pass against numeric gradients of loss_fn."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        tape.backward(loss_fn())
    worst = 0.0
    checked = 0
    value = lambda: loss_fn().item()
    for t in tensors:
        numeric = numeric_gradient(value, t, eps)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, float(relative_error(analytic, numeric).max()))
        checked += t.size
    return GradEntry(name, worst, checked)


def _weighted_sum(out, rng):
    # fixed random weighting so output gradients are non-uniform
    r = Tensor(rng.standard_normal(out.shape))
    return sum_all(mul(out, r))


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check_ops(seed=0, eps=DEFAULT_EPS) -> GradReport:
    report = GradReport("ops")
    rng = np.random.default_rng(seed)

    a, b = _t(rng, 3, 4), _t(rng, 4, 2)
    report.entries.append(check_tensors(
        "matmul", lambda: _weighted_sum(matmul(a, b), np.random.default_rng(7)), [a, b], eps))

    x, y = _t(rng, 3, 5), _t(rng, 3, 5)
    report.entries.append(check_tensors(
        "add", lambda: _weighted_sum(add(x, y), np.random.default_rng(8)), [x, y], eps))
    v = _t(rng, 5)
    report.entries.append(check_tensors(
        "add_vector", lambda: _weighted_sum(add(x, v), np.random.default_rng(9)), [x, v], eps))
    report.entries.append(check_tensors(
        "mul", lambda: _weighted_sum(mul(x, y), np.random.default_rng(10)), [x, y], eps))
    report.entries.append(check_tensors(
        "mul_vector", lambda: _weighted_sum(mul(x, v), np.random.default_rng(11)), [x, v], eps))

    s = _t(rng, 4, 6)
    report.entries.append(check_tensors(
        "sigmoid", lambda: _weighted_sum(sigmoid(s), np.random.default_rng(12)), [s], eps))
    report.entries.append(check_tensors(
        "tanh", lambda: _weighted_sum(tanh(s), np.random.default_rng(13)), [s], eps))
    r = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    r.data[np.abs(r.data) < 0.05] += 0.1  # keep clear of the kink
    report.entries.append(check_tensors(
        "relu", lambda: _weighted_sum(relu(r), np.random.default_rng(14)), [r], eps))

    cx = _t(rng, 2, 3, 5, 5)
    cw = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.5, requires_grad=True)
    report.entries.append(check_tensors(
        "conv2d", lambda: _weighted_sum(conv2d(cx, cw), np.random.default_rng(15)),
        [cx, cw], eps))
    report.entries.append(check_tensors(
        "conv2d_stride2", lambda: _weighted_sum(conv2d(cx, cw, stride=2),
                                                np.random.default_rng(16)),
        [cx, cw], eps))

    bx = _t(rng, 3, 2, 4, 4)
    bn = BatchNorm(2, dtype=np.float64)
    bn.scale.data += rng.standard_normal(2) * 0.2
    bn.shift.data += rng.standard_normal(2) * 0.2
    report.entries.append(check_tensors(
        "batch_norm_train",
        lambda: _weighted_sum(batch_norm(bx, bn.scale, bn.shift, bn.running_mean,
                                         bn.running_var, True),
                              np.random.default_rng(17)),
        [bx, bn.scale, bn.shift], eps))
    report.entries.append(check_tensors(
        "batch_norm_eval",
        lambda: _weighted_sum(batch_norm(bx, bn.scale, bn.shift, bn.running_mean,
                                         bn.running_var, False),
                              np.random.default_rng(18)),
        [bx, bn.scale, bn.shift], eps))

    px = _t(rng, 2, 3, 4, 4)
    report.entries.append(check_tensors(
        "meanpool2x2", lambda: _weighted_sum(meanpool2x2(px), np.random.default_rng(19)),
        [px], eps))
    report.entries.append(check_tensors(
        "global_avg_pool",
        lambda: _weighted_sum(global_avg_pool(px), np.random.default_rng(20)), [px], eps))

    dx, dw, db = _t(rng, 3, 6), _t(rng, 6, 4), _t(rng, 4)
    dense = Dense(dw, db)
    report.entries.append(check_tensors(
        "dense", lambda: _weighted_sum(dense.forward(dx), np.random.default_rng(21)),
        [dx, dw, db], eps))

    logits = _t(rng, 4, 5)
    labels = np.array([0, 2, 4, 1])
    report.entries.append(check_tensors(
        "softmax_cross_entropy", lambda: softmax_cross_entropy(logits, labels),
        [logits], eps))

    ca, cb = _t(rng, 2, 3), _t(rng, 2, 4)
    report.entries.append(check_tensors(
        "concat_cols", lambda: _weighted_sum(concat_cols(ca, cb), np.random.default_rng(22)),
        [ca, cb], eps))
    pc = _t(rng, 2, 3)
    report.entries.append(check_tensors(
        "pad_cols", lambda: _weighted_sum(pad_cols(pc, 6), np.random.default_rng(23)),
        [pc], eps))
    return report


def check_lstm(seed=0, eps=DEFAULT_EPS, steps=3, width=8, hidden=5, batch=2) -> GradReport:
    report = GradReport("lstm")
    rng = np.random.default_rng(seed)
    params = init_lstm(width, hidden, rng, dtype=np.float64)
    # move off the all-zero init so peephole/initial-state gradients are exercised
    for name in ("p_i", "p_f", "p_o", "h0", "c0"):
        getattr(params, name).data += rng.standard_normal(hidden) * 0.3
    xs = [Tensor(rng.standard_normal((batch, width)), requires_grad=True)
          for _ in range(steps)]

    def loss_fn():
        return _weighted_sum(run_sequence(params, xs), np.random.default_rng(40))

    for name, t in params.named_params():
        report.entries.append(check_tensors(f"lstm.{name}", loss_fn, [t], eps))
    for k, t in enumerate(xs):
        report.entries.append(check_tensors(f"lstm.x{k}", loss_fn, [t], eps))
    return report


def micro_config():
    return NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5, input_extent=32)


def check_full(seed=0, eps=DEFAULT_EPS, batch=2) -> GradReport:
    report = GradReport("full")
    cfg = micro_config()
    model = build_crmn(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 50)
    x = Tensor(rng.uniform(0.0, 1.0, (batch, 3, cfg.input_extent, cfg.input_extent)))
    labels = rng.integers(0, cfg.classes, batch)

    with Tape() as tape:
        logits, parts = model.forward(x, training=True, return_parts=True)
        tape.backward(softmax_cross_entropy(logits, labels))

    # cache every block's input, the adapted taps, the LSTM state before each
    # tap and the pool features once: a perturbation of block j changes
    # nothing before block j, and one of the LSTM or head nothing in the trunk
    inputs = [x] + [Tensor(t.data) for t in parts["taps"]]
    pool_out = Tensor(parts["pool_out"].data)
    width = max_lstm_width(cfg)
    adapted = [adapt_tap(t, width) for t in inputs[1:]]
    states = [initial_state(model.lstm, batch)]
    for a in adapted:
        states.append(lstm_step(model.lstm, a, states[-1]))

    def suffix_loss(start):
        pool, taps = trunk_forward(model.trunk, inputs[start], True, start=start)
        hidden = run_sequence(model.lstm, [adapt_tap(t, width) for t in taps], states[start])
        return softmax_cross_entropy(model.head.forward(concat_cols(pool, hidden)), labels)

    def back_half_loss():
        hidden = run_sequence(model.lstm, adapted)
        return softmax_cross_entropy(model.head.forward(concat_cols(pool_out, hidden)), labels)

    # the first block each trunk parameter reaches; any other (the stem)
    # replays the whole trunk
    starts = {id(t): j for j, block in enumerate(model.trunk.blocks)
              for _, layer in block.layers() for _, t in layer.params()}

    back_value = lambda: back_half_loss().item()
    for name, t, _ in model.named_params():
        value = back_value
        if name.startswith("trunk."):
            value = lambda start=starts.get(id(t), 0): suffix_loss(start).item()
        numeric = numeric_gradient(value, t, eps)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        err = float(relative_error(analytic, numeric).max())
        report.entries.append(GradEntry(name, err, t.size))
    return report


SCOPES = {"ops": check_ops, "lstm": check_lstm, "full": check_full}


def run_scope(scope, seed=0, eps=DEFAULT_EPS) -> GradReport:
    try:
        runner = SCOPES[scope]
    except KeyError:
        raise InputError(f"scope must be one of {tuple(SCOPES)}, got {scope!r}") from None
    return runner(seed=seed, eps=eps)
