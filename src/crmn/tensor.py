"""Dense tensors with tape-based reverse-mode differentiation.

Values are numpy arrays. While a :class:`Tape` is active, every operation
records a backward closure; ``Tape.backward`` replays the entries in reverse
order and accumulates gradients into each tensor that requires them. Without
an active tape, operations just compute forward values, so inference costs
nothing extra.

Broadcasting is deliberately narrow: binary ops accept equal shapes, or a
one-dimensional vector applied along the trailing axis of the other operand
(the bias/peephole case). Anything else raises ``DimensionError``.

Inside ``count_ops()`` every operation also charges its scalar multiplies,
adds and activations to an ``OpCounter``; ``analysis`` totals its
closed-form counts in the same class. Data movement is free.

Two precisions are supported: float32 (training default) and float64 (used
by the finite-difference gradient checks, which are too noisy at 32-bit).

Execution is sequential and numpy reductions run in a fixed order, so forward
values and gradients are bit-reproducible for a given seed. The
``CRMN_DETERMINISTIC`` environment variable is honored for interface
compatibility; there is no non-deterministic fast path to switch off.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError, InputError

DEFAULT_DTYPE = np.float32


def deterministic_mode() -> bool:
    return os.environ.get("CRMN_DETERMINISTIC", "") == "1"


def _as_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype.kind != "f":
        return arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """A dense n-dimensional array that can participate in the gradient tape."""

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


_ACTIVE_TAPES: list["Tape"] = []
_ACTIVE_COUNTERS: list[OpCounter] = []


@contextmanager
def count_ops():
    """Count forward scalar operations executed inside the block."""
    counter = OpCounter()
    _ACTIVE_COUNTERS.append(counter)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTERS.remove(counter)


def _bump(mults=0, adds=0, activations=0):
    for counter in _ACTIVE_COUNTERS:
        counter.mults += mults
        counter.adds += adds
        counter.activations += activations


class Tape:
    """Ordered record of operations for one forward pass.

    Entries are appended in execution order, which is automatically a
    topological order of the data flow. ``backward`` walks them once, in
    reverse, and adds this pass's gradient into ``.grad`` of every tensor
    that requires one, so repeated backward calls accumulate.
    """

    def __init__(self):
        self._entries = []
        self._outputs = set()

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPES.remove(self)
        return False

    def record(self, out, backward_fn):
        self._entries.append((out, backward_fn))
        self._outputs.add(id(out))

    def __len__(self):
        return len(self._entries)

    def backward(self, loss):
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if id(loss) not in self._outputs:
            raise ContractError("loss was not produced by operations recorded on this tape")

        grads = {}
        tensors = {}

        def accum(tensor, g):
            if not tensor.requires_grad:
                return
            key = id(tensor)
            g = np.asarray(g, dtype=tensor.data.dtype)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                tensors[key] = tensor

        accum(loss, np.ones_like(loss.data))
        for out, backward_fn in reversed(self._entries):
            g = grads.get(id(out))
            if g is None:
                continue
            backward_fn(g, accum)

        for key, tensor in tensors.items():
            if tensor.grad is None:
                tensor.grad = grads[key]
            else:
                tensor.grad = tensor.grad + grads[key]


def active_tape():
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


def backward(loss):
    """Run the backward pass for ``loss`` on the currently active tape."""
    tape = active_tape()
    if tape is None:
        raise ContractError("backward called with no active tape")
    tape.backward(loss)


def _record(out, backward_fn):
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, backward_fn)


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
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad)
    m, k = a.shape
    p = b.shape[1]
    _bump(mults=m * p * k, adds=m * p * k)

    def backward_fn(g, accum):
        accum(a, g @ b.data.T)
        accum(b, a.data.T @ g)

    _record(out, backward_fn)
    return out


def add(a, b):
    a, b = _tensor(a), _tensor(b)
    mode = _binary_mode(a, b, "add")
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)
    _bump(adds=out.size)

    def backward_fn(g, accum):
        accum(a, g)
        accum(b, g if mode == "equal" else _sum_to_vector(g))

    _record(out, backward_fn)
    return out


def mul(a, b):
    a, b = _tensor(a), _tensor(b)
    mode = _binary_mode(a, b, "mul")
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad)
    _bump(mults=out.size)

    def backward_fn(g, accum):
        accum(a, g * b.data)
        gb = g * a.data
        accum(b, gb if mode == "equal" else _sum_to_vector(gb))

    _record(out, backward_fn)
    return out


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x):
    x = _tensor(x)
    out = Tensor(_stable_sigmoid(x.data), requires_grad=x.requires_grad)
    _bump(activations=out.size)
    y = out.data

    def backward_fn(g, accum):
        accum(x, g * y * (1.0 - y))

    _record(out, backward_fn)
    return out


def tanh(x):
    x = _tensor(x)
    out = Tensor(np.tanh(x.data), requires_grad=x.requires_grad)
    _bump(activations=out.size)
    y = out.data

    def backward_fn(g, accum):
        accum(x, g * (1.0 - y * y))

    _record(out, backward_fn)
    return out


def relu(x):
    x = _tensor(x)
    out = Tensor(np.maximum(x.data, 0), requires_grad=x.requires_grad)
    _bump(activations=out.size)
    mask = x.data > 0

    def backward_fn(g, accum):
        accum(x, g * mask)

    _record(out, backward_fn)
    return out


def sum_all(x):
    """Sum of all elements, as a scalar tensor."""
    x = _tensor(x)
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype), requires_grad=x.requires_grad)
    _bump(adds=x.size)

    def backward_fn(g, accum):
        accum(x, np.broadcast_to(g, x.shape))

    _record(out, backward_fn)
    return out


def reshape(x, shape):
    x = _tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}") from exc
    out = Tensor(data, requires_grad=x.requires_grad)
    src_shape = x.shape

    def backward_fn(g, accum):
        accum(x, g.reshape(src_shape))

    _record(out, backward_fn)
    return out


def concat_cols(a, b):
    """Concatenate two rank-2 tensors along the trailing axis."""
    a, b = _tensor(a), _tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1),
                 requires_grad=a.requires_grad or b.requires_grad)
    split = a.shape[1]

    def backward_fn(g, accum):
        accum(a, g[:, :split])
        accum(b, g[:, split:])

    _record(out, backward_fn)
    return out


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
    out = Tensor(data, requires_grad=x.requires_grad)

    def backward_fn(g, accum):
        accum(x, g[:, :have])

    _record(out, backward_fn)
    return out


def rows_from_vector(v, rows):
    """Broadcast a vector to ``rows`` identical rows."""
    v = _tensor(v)
    if v.ndim != 1:
        raise DimensionError(f"rows_from_vector: expected rank 1, got shape {v.shape}")
    out = Tensor(np.broadcast_to(v.data, (rows, v.shape[0])), requires_grad=v.requires_grad)

    def backward_fn(g, accum):
        accum(v, g.sum(axis=0))

    _record(out, backward_fn)
    return out


def space_subsample(x):
    """Keep every other row/column of a b*c*H*W tensor (stride-2 identity)."""
    x = _tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"space_subsample: expected rank 4, got shape {x.shape}")
    out = Tensor(x.data[:, :, ::2, ::2], requires_grad=x.requires_grad)
    src_shape = x.shape

    def backward_fn(g, accum):
        gx = np.zeros(src_shape, dtype=g.dtype)
        gx[:, :, ::2, ::2] = g
        accum(x, gx)

    _record(out, backward_fn)
    return out


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
    out = Tensor(data, requires_grad=x.requires_grad)

    def backward_fn(g, accum):
        accum(x, g[:, :have])

    _record(out, backward_fn)
    return out


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

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    softmax = ez / ez.sum(axis=1, keepdims=True)
    logp = z - np.log(ez.sum(axis=1, keepdims=True))
    loss_val = -logp[np.arange(batch), labels].mean()
    out = Tensor(np.asarray(loss_val, dtype=logits.data.dtype),
                 requires_grad=logits.requires_grad)
    # exp and log count as activations; the row sums and max-shifts as adds;
    # the final 1/batch scaling as one multiply per row
    _bump(mults=batch, adds=2 * batch * classes, activations=batch * (classes + 1))

    def backward_fn(g, accum):
        grad = softmax.copy()
        grad[np.arange(batch), labels] -= 1.0
        accum(logits, grad * (g / batch))

    _record(out, backward_fn)
    return out
