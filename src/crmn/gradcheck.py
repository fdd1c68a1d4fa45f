"""Finite-difference verification of the backward pass.

All checks run at 64-bit with central differences (default step 1e-5) and
score each element by |analytic - numeric| / max(|analytic|, |numeric|,
1e-3); the floor keeps near-zero gradients from inflating the ratio. A NaN
on either side scores inf, so it fails every tolerance.

Three scopes:
  ops   - each primitive op on small random shapes
  lstm  - a full 3-step cell (width 8, hidden 5, batch 2) through every
          parameter, its steps' inputs 8, 6 and 4 wide as the model's taps
          narrow by stage, so the narrow taps' rows are checked too
  full  - an end-to-end micro model (n=1, base 4, hidden 5, 3 classes,
          batch 2, training mode)

Every probe is scored one way: ``numeric_gradient(f, tensor)`` hands its
loss f a (K, *tensor.shape) stack of copies of the tensor, each with one
scalar moved by +eps (or -eps), and f returns the K losses; tensor.data is
only read. K is ``_PROBES``, 16 for every loss. The ops and lstm scopes bind
each copy in turn as the tensor's data and run their taped loss once per
copy; the full sweep runs its replay once per stack.

The full sweep exploits the model's one-way dataflow, caching every block's
input, the adapted taps, the LSTM state before each tap and the pool
features of the analytic pass:
  trunk suffix - perturbing a parameter of block j changes nothing before
                 block j, so its numeric evaluations run the model's loop,
                 ``CrmnModel.run``, from block j on its cached input and the
                 LSTM's cached state; the stem and block 0 run it all
  back half    - perturbing LSTM or head parameters cannot change trunk
                 activations, so those evaluations run only the LSTM steps
                 over the cached adapted taps, then the head
Both run over ``model.Values``, with the K copies on a leading probe axis:
the arithmetic of ``conv2d`` and ``batch_norm`` through their value
functions, the adapter, the LSTM step through ``lstm.gate_values``, then the
head. Stacked arrays are kernels (K, co, ci, k, k), matrices (K, rows,
cols), per-map vectors (K, c), per-unit vectors (K, 1, n) and activations
(K, batch, ...). ``np.matmul`` then runs one GEMM per probe (per probe and
image in a conv), each of the unstacked shape, and the batch-norm statistics
of a (K, b, c, h, w) stack reduce each slice in the unstacked order, so
every replayed loss is bit-identical to a whole-model evaluation and each
scalar still gets its own central difference. Concatenating the copies into
one wide GEMM would be cheaper but is not bit-identical: BLAS picks its
kernel, and with it the summation order, by the matrix shape. The replay
records nothing and charges no count; the analytic side is still one
whole-graph backward pass.

K bounds the memory: the widest stack, 16 copies of the micro model's
2 x 4 x 32 x 32 float64 stage-1 maps, holds 1 MiB per activation, and the
copies of a 1024 x 5 LSTM input weight take 640 KiB. On one process
check_full(0) peaks at 43.8 MB resident, against 47.8 MB at K = 32 (x86_64,
NumPy 2.4, one BLAS thread).

After the analytic pass and the caches, the full sweep scores its tensors on
k = min(tensors, CPUs) processes: this one and k - 1 children forked from it,
which share the model, the caches and the analytic gradients copy-on-write.
Processes and not threads, as the sweep's cost is Python per-op overhead:
two threads running the +eps and -eps stacks at once read no faster under
the GIL. The tensors are handed out one at a time from a queue of indices,
so a process that draws a large trunk kernel simply takes fewer; split by
even and odd position, one process's share took 1.07 s and the other's
0.90. Each tensor is scored as on one process, so the report is the serial
one bit for bit. The sweep stays in this process where ``os.fork`` is
missing, one CPU is available, or another thread is alive, since a forked
child inherits the locks that other threads hold but not the threads. The
k processes take up to k times the serial memory between them: on two CPUs
check_full(0)'s calling process peaks at 43.7 MB and its child at 31.4 MB.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .layers import BatchNorm, Dense, batch_norm, conv2d, global_avg_pool, meanpool2x2
from .lstm import init_lstm, run_sequence
from .model import Values, _cpus, adapt_tap, build_crmn
# trunk_forward is unused here: bench/tracer.py wraps it in this module
from .resnet import NetworkConfig, trunk_forward
from .tensor import (Tape, Tensor, _softmax_xent, add, backward, concat_cols, matmul, mul,
                     pad_cols, pad_maps, relu, reshape, rows_from_vector, sigmoid,
                     softmax_cross_entropy, space_subsample, sum_all, tanh)

DEFAULT_EPS = 1e-5
ERROR_FLOOR = 1e-3
DEFAULT_TOLERANCE = 1e-4
# probes per numeric_gradient call, K, for every loss; the module docstring gives
# what it costs in memory
_PROBES = 16
# the LSTM check's input width per step, its hidden size, and the batch of both
# model checks
_WIDTHS, _HIDDEN, _BATCH = (8, 6, 4), 5, 2


def relative_error(analytic, numeric, floor=ERROR_FLOOR):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    err = np.abs(analytic - numeric) / scale
    return np.where(np.isnan(err), np.inf, err)


def numeric_gradient(f, tensor, eps=DEFAULT_EPS):
    """Central-difference gradient of a loss w.r.t. tensor, ``_PROBES`` scalars per call.

    ``f(copies)`` takes a (K, *tensor.shape) stack of copies of tensor's value,
    each with one scalar moved by +eps (or -eps), and returns the K losses.
    tensor.data is only read.
    """
    flat = tensor.data.reshape(-1)
    grad = np.empty(flat.size, dtype=tensor.dtype)
    for start in range(0, flat.size, _PROBES):
        idx = np.arange(start, min(start + _PROBES, flat.size))
        rows = np.arange(idx.size)
        copies = np.tile(flat, (idx.size, 1))
        shape = (idx.size,) + tensor.shape
        copies[rows, idx] = flat[idx] + eps
        f_plus = f(copies.reshape(shape))
        copies[rows, idx] = flat[idx] - eps
        grad[idx] = (f_plus - f(copies.reshape(shape))) / (2.0 * eps)
    return grad.reshape(tensor.shape)


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
        # every entry, not the worst: max() drops a NaN
        return all(e.max_rel_err < self.tolerance for e in self.entries)

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
    worst = max(_max_error(t, _one_at_a_time(loss_fn, t), eps) for t in tensors)
    return GradEntry(name, worst, sum(t.size for t in tensors))


def _one_at_a_time(loss_fn, tensor):
    """loss_fn() as numeric_gradient's loss: each copy bound in turn as tensor.data, which
    loss_fn reads at call time, and tensor.data put back after the stack."""
    def losses(copies):
        data, out = tensor.data, []
        try:
            for copy in copies:
                tensor.data = copy
                out.append(loss_fn().item())
        finally:
            tensor.data = data
        return np.array(out)
    return losses


def _max_error(tensor, losses, eps):
    """Worst element error of tensor's taped gradient against the numeric one of losses."""
    numeric = numeric_gradient(losses, tensor, eps)
    analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
    return float(relative_error(analytic, numeric).max())


def _weighted_sum(out, rng):
    # fixed random weighting so output gradients are non-uniform
    r = Tensor(rng.standard_normal(out.shape))
    return sum_all(mul(out, r))


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check_ops(seed=0, eps=DEFAULT_EPS) -> GradReport:
    rng = np.random.default_rng(seed)
    a, b = _t(rng, 3, 4), _t(rng, 4, 2)
    x, y, v = _t(rng, 3, 5), _t(rng, 3, 5), _t(rng, 5)
    s, r = _t(rng, 4, 6), _t(rng, 4, 6)
    r.data[np.abs(r.data) < 0.05] += 0.1  # keep clear of the kink
    cx = _t(rng, 2, 3, 5, 5)
    cw = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.5, requires_grad=True)
    bx = _t(rng, 3, 2, 4, 4)
    bn = BatchNorm(2, dtype=np.float64)
    bn.scale.data += rng.standard_normal(2) * 0.2
    bn.shift.data += rng.standard_normal(2) * 0.2
    px = _t(rng, 2, 3, 4, 4)
    dx, dw, db = _t(rng, 3, 6), _t(rng, 6, 4), _t(rng, 4)
    logits = _t(rng, 4, 5)
    ca, cb = _t(rng, 2, 3), _t(rng, 2, 4)
    pc = _t(rng, 2, 3)
    # the norm on the layer's initial estimates, fresh copies per call, so a
    # training probe moves nothing the next one reads
    initial = bn.running_mean.copy(), bn.running_var.copy()
    norm = lambda training: batch_norm(bx, bn.scale, bn.shift, *map(np.copy, initial), training)
    # the fused norm + shortcut add + ReLU, on fixed running estimates (fresh
    # copies per call, as in ``norm``)
    fx = _t(rng, 3, 2, 4, 4)
    stats = rng.standard_normal(2) * 0.3, 0.5 + rng.random(2)

    def fused(training, shortcut, relu=True):
        return batch_norm(fx, bn.scale, bn.shift, stats[0].copy(), stats[1].copy(), training,
                          add=shortcut, relu=relu)

    def off_kink(training):
        # a shortcut that keeps every sum before the ReLU at least 0.05 from it
        shortcut = _t(rng, 3, 2, 4, 4)
        before = fused(training, shortcut, relu=False).data
        shortcut.data[np.abs(before) < 0.05] += 0.1
        return shortcut

    fa_train, fa_eval = off_kink(True), off_kink(False)
    # a tap, the ResNet's pad shortcut, and a reshape's input
    tx, mx, rv = _t(rng, 2, 2, 4, 4), _t(rng, 2, 3, 2, 2), _t(rng, 4)
    rs = _t(rng, 2, 3, 4)
    # a conv of a norm+ReLU as one op, the norm on fixed running estimates
    # (fresh copies per call, as in ``fused``)
    cbn = BatchNorm(3, dtype=np.float64)
    cbn.scale.data += rng.standard_normal(3) * 0.2
    cbn.shift.data += rng.standard_normal(3) * 0.2
    cstats = rng.standard_normal(3) * 0.3, 0.5 + rng.random(3)

    def conv_norm(x, training):
        cbn.running_mean, cbn.running_var = cstats[0].copy(), cstats[1].copy()
        return conv2d(x, cw, norm=cbn, training=training)

    def off_kink_input(training):
        # an input that keeps every value before the ReLU at least 0.05 from it
        x = _t(rng, 2, 3, 5, 5)
        while True:
            before = batch_norm(x, cbn.scale, cbn.shift, *map(np.copy, cstats), training).data
            near = np.abs(before) < 0.05
            if not near.any():
                return x
            x.data[near] += 0.1

    cn_train, cn_eval = off_kink_input(True), off_kink_input(False)
    # (name, seed of the fixed random weighting of the op's output, op, inputs);
    # the cross-entropy is a loss already and takes no weighting
    checks = [
        ("matmul", 7, lambda: matmul(a, b), [a, b]),
        ("add", 8, lambda: add(x, y), [x, y]),
        ("add_vector", 9, lambda: add(x, v), [x, v]),
        ("mul", 10, lambda: mul(x, y), [x, y]),
        ("mul_vector", 11, lambda: mul(x, v), [x, v]),
        ("sigmoid", 12, lambda: sigmoid(s), [s]),
        ("tanh", 13, lambda: tanh(s), [s]),
        ("relu", 14, lambda: relu(r), [r]),
        ("conv2d", 15, lambda: conv2d(cx, cw), [cx, cw]),
        ("conv2d_stride2", 16, lambda: conv2d(cx, cw, stride=2), [cx, cw]),
        ("batch_norm_train", 17, lambda: norm(True), [bx, bn.scale, bn.shift]),
        ("batch_norm_eval", 18, lambda: norm(False), [bx, bn.scale, bn.shift]),
        ("meanpool2x2", 19, lambda: meanpool2x2(px), [px]),
        ("global_avg_pool", 20, lambda: global_avg_pool(px), [px]),
        ("dense", 21, lambda: Dense(dw, db).forward(dx), [dx, dw, db]),
        ("softmax_cross_entropy", None,
         lambda: softmax_cross_entropy(logits, np.array([0, 2, 4, 1])), [logits]),
        ("concat_cols", 22, lambda: concat_cols(ca, cb), [ca, cb]),
        ("pad_cols", 23, lambda: pad_cols(pc, 6), [pc]),
        ("batch_norm_add_relu_train", 24, lambda: fused(True, fa_train),
         [fx, bn.scale, bn.shift, fa_train]),
        ("batch_norm_add_relu_eval", 25, lambda: fused(False, fa_eval),
         [fx, bn.scale, bn.shift, fa_eval]),
        ("adapt_tap", 26, lambda: adapt_tap(tx), [tx]),
        ("pad_maps", 27, lambda: pad_maps(mx, 5), [mx]),
        ("space_subsample", 28, lambda: space_subsample(tx), [tx]),
        ("rows_from_vector", 29, lambda: rows_from_vector(rv, 3), [rv]),
        ("reshape", 30, lambda: reshape(rs, (4, 6)), [rs]),
        ("conv2d_norm_relu_train", 31, lambda: conv_norm(cn_train, True),
         [cn_train, cw, cbn.scale, cbn.shift]),
        ("conv2d_norm_relu_eval", 32, lambda: conv_norm(cn_eval, False),
         [cn_eval, cw, cbn.scale, cbn.shift]),
    ]
    report = GradReport("ops")
    for name, weighting, op, inputs in checks:
        loss_fn = op if weighting is None else (
            lambda op=op, k=weighting: _weighted_sum(op(), np.random.default_rng(k)))
        report.entries.append(check_tensors(name, loss_fn, inputs, eps))
    return report


def check_lstm(seed=0, eps=DEFAULT_EPS) -> GradReport:
    report = GradReport("lstm")
    rng = np.random.default_rng(seed)
    params = init_lstm(_WIDTHS[0], _HIDDEN, rng, dtype=np.float64)
    # move off the all-zero init so peephole/initial-state gradients are exercised
    for name in ("p_i", "p_f", "p_o", "h0", "c0"):
        getattr(params, name).data += rng.standard_normal(_HIDDEN) * 0.3
    xs = [Tensor(rng.standard_normal((_BATCH, width)), requires_grad=True)
          for width in _WIDTHS]

    def loss_fn():
        return _weighted_sum(run_sequence(params, xs), np.random.default_rng(40))

    for name, t in params.named_params() + [(f"x{k}", t) for k, t in enumerate(xs)]:
        report.entries.append(check_tensors(f"lstm.{name}", loss_fn, [t], eps))
    return report


def micro_config():
    return NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5, input_extent=32)


def check_full(seed=0, eps=DEFAULT_EPS) -> GradReport:
    report = GradReport("full")
    cfg = micro_config()
    model = build_crmn(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 50)
    x = Tensor(rng.uniform(0.0, 1.0, (_BATCH, 3, cfg.input_extent, cfg.input_extent)))
    labels = rng.integers(0, cfg.classes, _BATCH)

    with Tape():  # backward frees every activation but the parts kept here
        logits, parts = model.forward(x, training=True, return_parts=True)
        backward(softmax_cross_entropy(logits, labels))

    # cache every block's input, the adapted taps, the LSTM state before each
    # tap and the pool features once: a perturbation of block j changes
    # nothing before block j, and one of the LSTM or head nothing in the trunk
    inputs = [x.data] + [t.data for t in parts["taps"]]
    pool_out = parts["pool_out"].data
    plain = Values(lambda t: t.data)
    adapted = [plain.adapt(t) for t in inputs[1:]]
    states = [plain.start(model.lstm, _BATCH)]
    for a in adapted:
        states.append(plain.step(model.lstm, a, states[-1]))

    def probe_loss(tensor, start):
        """tensor's loss for numeric_gradient: the model from block ``start`` on, or with
        ``start`` None the LSTM and the head alone, on the cached values, through
        ``Values`` with the stacked copies of tensor on a leading probe axis."""
        def losses(copies):
            if start is None and copies.ndim == 2:
                copies = copies[:, None, :]  # an LSTM or head vector: (K, 1, n) over the batch
            ops = Values(lambda t: copies if t is tensor else t.data)
            if start is not None:
                logits = model.run(inputs[start], ops, start, states[start])[0]
            else:
                state = ops.start(model.lstm, _BATCH)
                for a in adapted:
                    state = ops.step(model.lstm, a, state)
                logits = ops.head(model.head, pool_out, state.h)
            return _softmax_xent(logits, labels)[1]
        return losses

    # the first block each trunk parameter reaches; any other (the stem)
    # replays the whole trunk
    starts = {id(t): j for j, block in enumerate(model.trunk.blocks)
              for _, layer in block.layers() for _, t in layer.params()}

    params = model.named_params()

    def score(i):
        name, t, _ = params[i]
        start = starts.get(id(t), 0) if name.startswith("trunk.") else None
        return _max_error(t, probe_loss(t, start), eps)

    errors = _scored(score, len(params))
    report.entries = [GradEntry(name, errors[i], t.size) for i, (name, t, _) in enumerate(params)]
    return report


def _scored(score, n):
    """{i: score(i)} for i in range(n), on k = min(n, CPUs) processes at once.

    This process and k - 1 children forked from it take the indices one at a
    time from one pipe, queued before the fork; each child pickles its
    scores, or what it raised, to a pipe of its own and leaves by ``os._exit``.
    k is 1 where ``os.fork`` is missing or another thread is alive (a fork
    copies only the calling thread, so a lock another thread holds stays held
    in the child). Every child is reaped before this returns or raises.
    """
    k = min(n, _cpus()) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    tasks, put = os.pipe()
    pids, results = [], []  # each child's pid and the read end of its pipe
    try:
        # n 4-byte records: a few dozen tensors, well within a pipe's buffer
        with open(put, "wb") as queue:
            queue.write(struct.pack(f"={n}I", *range(n)))
        for _ in range(k - 1):
            r, w = os.pipe()
            results.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(w, tasks, score)
            finally:
                os.close(w)  # the child never gets here: _child exits
            pids.append(pid)
        errors = _take(tasks, score)
        for pid, r in zip(pids, results):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"check_full: child {pid} ended with no result")
            out = pickle.loads(data)
            if isinstance(out, BaseException):
                raise out  # the child's, its type and message unchanged
            errors.update(out)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for fd in [tasks] + results:
            os.close(fd)
    return errors


def _take(tasks, score):
    """{i: score(i)} for each index taken from the ``tasks`` pipe, until it is empty."""
    out = {}
    while record := os.read(tasks, 4):
        (i,) = struct.unpack("=I", record)
        out[i] = score(i)
    return out


def _child(w, tasks, score):
    """A forked child's whole life: its ``_take`` scores, or what it raised, pickled to w."""
    try:
        try:
            out = _take(tasks, score)
        except BaseException as exc:
            out = exc
        with open(w, "wb", closefd=False) as pipe:
            pipe.write(pickle.dumps(out))
    finally:
        os._exit(0)  # never back into the caller's stack


SCOPES = {"ops": check_ops, "lstm": check_lstm, "full": check_full}


def run_scope(scope, seed=0, eps=DEFAULT_EPS) -> GradReport:
    try:
        runner = SCOPES[scope]
    except KeyError:
        raise InputError(f"scope must be one of {tuple(SCOPES)}, got {scope!r}") from None
    return runner(seed=seed, eps=eps)
