"""Dense tensors with tape-based reverse-mode differentiation.

Values are numpy arrays. While a :class:`Tape` is active, every operation
records a backward closure; ``Tape.backward`` pops the entries in reverse
order, frees each intermediate gradient once its closure has read it and
each entry once its closure has run, and accumulates gradients into each
leaf tensor that requires them. A tape is therefore single-use: an
activation is freed as soon as the last closure that reads it has run, so a
training step peaks at about its tape plus its gradients. Without an active
tape, operations just compute forward values, so inference costs nothing
extra.

One rule decides what is taped: an op's output requires a gradient, and its
closure is recorded, exactly when one of its inputs requires a gradient.
``_taped`` states it once. Every single-output op here and in ``layers``
computes its NumPy value, charges its count with ``_bump``, defines its
closure and returns ``_taped(value, backward_fn, *inputs)``. The two-output
``lstm.lstm_step`` applies the rule itself.

Broadcasting is deliberately narrow: binary ops accept equal shapes, or a
one-dimensional vector applied along the trailing axis of the other operand
(the bias/peephole case). Anything else raises ``DimensionError``.

Inside ``count_ops()`` every operation also charges its scalar multiplies,
adds and activations to an ``OpCounter``; ``analysis`` totals its
closed-form counts in the same class. Data movement is free.

Two precisions are supported: float32 (training default) and float64 (used
by the finite-difference gradient checks, which are too noisy at 32-bit).

Execution is sequential and numpy reductions run in a fixed order, so forward
values and gradients are bit-reproducible for a given seed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError, InputError

DEFAULT_DTYPE = np.float32


def _as_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype.kind != "f":
        return arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """A dense n-dimensional array that can participate in the gradient tape."""

    # no per-instance dict: a taped forward keeps every op's output Tensor until its backward
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def item(self):
        return self.data.item()

    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        grad = "grad" if self.requires_grad else "nograd"
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, {grad})"


class OpCounter:
    """Running totals of scalar operations: multiplies, adds, activations."""

    def __init__(self):
        self.mults = 0
        self.adds = 0
        self.activations = 0

    @property
    def total(self):
        return self.mults + self.adds + self.activations

    def as_dict(self):
        return {
            "mults": self.mults,
            "adds": self.adds,
            "activations": self.activations,
            "total": self.total,
        }


class _Active(threading.local):
    """Open tapes and counters, innermost last, of the thread that runs an op."""

    def __init__(self):
        self.tapes = []
        self.counters = []


_ACTIVE = _Active()


@contextmanager
def count_ops():
    """Count forward scalar operations executed inside the block."""
    counter = OpCounter()
    _ACTIVE.counters.append(counter)
    try:
        yield counter
    finally:
        _ACTIVE.counters.remove(counter)


def _bump(mults=0, adds=0, activations=0):
    for counter in _ACTIVE.counters:
        counter.mults += mults
        counter.adds += adds
        counter.activations += activations


class Tape:
    """Ordered record of operations for one forward pass.

    Entries are appended in execution order, which is automatically a
    topological order of the data flow. ``backward`` pops them once, in
    reverse. A recorded output's gradient has every contribution once its
    own entry is reached, so it is handed to that entry's closure and then
    freed, and so are the entry's output and closure: only leaves (inputs
    and parameters, which no entry produced) get this pass's gradient added
    into ``.grad``, and backward calls on later tapes accumulate there. A
    spent tape holds no entries, so a second ``backward`` on it raises.
    """

    def __init__(self):
        self._entries = []

    def __enter__(self):
        _ACTIVE.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.tapes.remove(self)
        return False

    def record(self, out, backward_fn):
        self._entries.append((out, backward_fn))

    def backward(self, loss):
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        # a loss is normally the last entry, so the scan stops at once
        if not any(out is loss for out, _ in reversed(self._entries)):
            raise ContractError("loss was not produced by operations recorded on this tape, or "
                                "the tape is spent: backward frees each entry it runs")
        entries, self._entries = self._entries, []

        grads = {}  # id -> (tensor, its gradient so far)

        def accum(tensor, g):
            if not tensor.requires_grad:
                return
            key = id(tensor)
            g = np.asarray(g, dtype=tensor.data.dtype)
            held = grads.get(key)
            grads[key] = (tensor, g if held is None else held[1] + g)

        accum(loss, np.ones_like(loss.data))
        while entries:
            out, backward_fn = entries.pop()
            held = grads.pop(id(out), None)
            if held is not None:
                backward_fn(held[1], accum)
            # the entry's output, closure and inputs go unless an earlier entry still holds them
            del out, backward_fn, held

        for tensor, g in grads.values():
            tensor.grad = g if tensor.grad is None else tensor.grad + g


def active_tape():
    return _ACTIVE.tapes[-1] if _ACTIVE.tapes else None


def backward(loss):
    """Run the backward pass for ``loss`` on the currently active tape, spending it."""
    tape = active_tape()
    if tape is None:
        raise ContractError("backward called with no active tape")
    tape.backward(loss)


def _record(out, backward_fn):
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, backward_fn)


def _taped(data, backward_fn, *inputs):
    """``data`` as an op's output, taped exactly when one of ``inputs`` needs a gradient."""
    # a plain loop: a generator any() costs several times more per op
    for t in inputs:
        if t.requires_grad:
            out = Tensor(data, requires_grad=True)
            _record(out, backward_fn)
            return out
    return Tensor(data)


def _tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _sum_to_vector(g):
    # collapse all leading axes, leaving the trailing one
    if g.ndim == 1:
        return g
    return g.sum(axis=tuple(range(g.ndim - 1)))


def _binary_mode(a, b, op_name):
    """Equal shapes, or b a vector over a's trailing axis."""
    if a.shape == b.shape:
        return "equal"
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        return "vector"
    raise DimensionError(f"{op_name}: cannot combine shapes {a.shape} and {b.shape}")


def matmul(a, b):
    """Matrix product of two rank-2 tensors."""
    a, b = _tensor(a), _tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    m, k = a.shape
    p = b.shape[1]
    _bump(mults=m * p * k, adds=m * p * k)

    def backward_fn(g, accum):
        accum(a, g @ b.data.T)
        accum(b, a.data.T @ g)

    return _taped(a.data @ b.data, backward_fn, a, b)


def add(a, b):
    a, b = _tensor(a), _tensor(b)
    mode = _binary_mode(a, b, "add")
    _bump(adds=a.size)

    def backward_fn(g, accum):
        accum(a, g)
        accum(b, g if mode == "equal" else _sum_to_vector(g))

    return _taped(a.data + b.data, backward_fn, a, b)


def mul(a, b):
    a, b = _tensor(a), _tensor(b)
    mode = _binary_mode(a, b, "mul")
    _bump(mults=a.size)

    def backward_fn(g, accum):
        accum(a, g * b.data)
        gb = g * a.data
        accum(b, gb if mode == "equal" else _sum_to_vector(gb))

    return _taped(a.data * b.data, backward_fn, a, b)


def _stable_sigmoid(x):
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below: e <= 1
    # never overflows, and the shared denominator is the same IEEE sum
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x):
    x = _tensor(x)
    y = _stable_sigmoid(x.data)
    _bump(activations=y.size)

    def backward_fn(g, accum):
        accum(x, g * y * (1.0 - y))

    return _taped(y, backward_fn, x)


def tanh(x):
    x = _tensor(x)
    y = np.tanh(x.data)
    _bump(activations=y.size)

    def backward_fn(g, accum):
        accum(x, g * (1.0 - y * y))

    return _taped(y, backward_fn, x)


def relu(x):
    x = _tensor(x)
    _bump(activations=x.size)

    def backward_fn(g, accum):
        accum(x, g * (x.data > 0))

    return _taped(np.maximum(x.data, 0), backward_fn, x)


def sum_all(x):
    """Sum of all elements, as a scalar tensor."""
    x = _tensor(x)
    _bump(adds=x.size)

    def backward_fn(g, accum):
        accum(x, np.broadcast_to(g, x.shape))

    return _taped(np.asarray(x.data.sum(), dtype=x.data.dtype), backward_fn, x)


def reshape(x, shape):
    x = _tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}") from exc
    src_shape = x.shape

    def backward_fn(g, accum):
        accum(x, g.reshape(src_shape))

    return _taped(data, backward_fn, x)


def concat_cols(a, b):
    """Concatenate two rank-2 tensors along the trailing axis."""
    a, b = _tensor(a), _tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    split = a.shape[1]

    def backward_fn(g, accum):
        accum(a, g[:, :split])
        accum(b, g[:, split:])

    return _taped(np.concatenate([a.data, b.data], axis=1), backward_fn, a, b)


def pad_cols(x, width):
    """Zero-pad the trailing axis of a rank-2 tensor up to ``width``."""
    x = _tensor(x)
    if x.ndim != 2:
        raise DimensionError(f"pad_cols: expected rank 2, got shape {x.shape}")
    have = x.shape[1]
    if have > width:
        raise ContractError(f"pad_cols: input width {have} exceeds target {width}")
    if have == width:
        return x
    data = np.zeros((x.shape[0], width), dtype=x.data.dtype)
    data[:, :have] = x.data

    def backward_fn(g, accum):
        accum(x, g[:, :have])

    return _taped(data, backward_fn, x)


def rows_from_vector(v, rows):
    """Broadcast a vector to ``rows`` identical rows."""
    v = _tensor(v)
    if v.ndim != 1:
        raise DimensionError(f"rows_from_vector: expected rank 1, got shape {v.shape}")

    def backward_fn(g, accum):
        accum(v, g.sum(axis=0))

    return _taped(np.broadcast_to(v.data, (rows, v.shape[0])), backward_fn, v)


def space_subsample(x):
    """Keep every other row/column of a b*c*H*W tensor (stride-2 identity)."""
    x = _tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"space_subsample: expected rank 4, got shape {x.shape}")
    src_shape = x.shape

    def backward_fn(g, accum):
        gx = np.zeros(src_shape, dtype=g.dtype)
        gx[:, :, ::2, ::2] = g
        accum(x, gx)

    return _taped(x.data[:, :, ::2, ::2], backward_fn, x)


def pad_maps(x, maps):
    """Zero-pad the channel axis of a b*c*H*W tensor up to ``maps`` channels."""
    x = _tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"pad_maps: expected rank 4, got shape {x.shape}")
    have = x.shape[1]
    if have > maps:
        raise ContractError(f"pad_maps: input has {have} maps, target {maps}")
    if have == maps:
        return x
    b, _, h, w = x.shape
    data = np.zeros((b, maps, h, w), dtype=x.data.dtype)
    data[:, :have] = x.data

    def backward_fn(g, accum):
        accum(x, g[:, :have])

    return _taped(data, backward_fn, x)


def _softmax_xent(logits, labels):
    """Softmax over the classes and mean NLL of ``labels`` over the batch, in NumPy.

    ``logits`` is (..., batch, classes). Leading axes stay: one loss per
    leading index, each bit-identical to the loss of that slice alone.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=-1, keepdims=True)
    logp = z - np.log(total)
    return ez / total, -logp[..., np.arange(labels.shape[0]), labels].mean(axis=-1)


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer labels under softmax logits.

    Stabilized by row-max subtraction; backward yields
    (softmax - onehot) / batch.
    """
    logits = _tensor(logits)
    if logits.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy: logits must be rank 2, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise DimensionError(
            f"softmax_cross_entropy: {labels.shape} labels for {logits.shape[0]} rows")
    batch, classes = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise InputError(f"labels must lie in [0, {classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")

    softmax, loss_val = _softmax_xent(logits.data, labels)
    # exp and log count as activations; the row sums and max-shifts as adds;
    # the final 1/batch scaling as one multiply per row
    _bump(mults=batch, adds=2 * batch * classes, activations=batch * (classes + 1))

    def backward_fn(g, accum):
        grad = softmax.copy()
        grad[np.arange(batch), labels] -= 1.0
        accum(logits, grad * (g / batch))

    return _taped(np.asarray(loss_val, dtype=logits.data.dtype), backward_fn, logits)
