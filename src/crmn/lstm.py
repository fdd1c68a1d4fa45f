"""Peephole LSTM cell run along the block sequence of the trunk.

The gates follow the peephole form: input and forget gates see the previous
cell state, the output gate sees the freshly updated cell state. The
candidate uses tanh. The output-gate squash is configurable ('tanh' or
'sigmoid'); the hidden update is h = o * tanh(c) either way.

Weight matrices are stored input-major, (width, hidden), so a batch of row
vectors multiplies on the left. All matrices are initialized orthogonally
(semi-orthogonal for the rectangular input maps) from a seeded Gaussian.
Gate biases start at a configurable negative value (candidate bias at 0),
and the initial state (h0, and c0 when enabled) is a learned parameter
broadcast across the batch.

``lstm_step`` is one taped op, like ``layers.conv2d``: the gate arithmetic
runs in NumPy and the step charges its operation count once. It records two
backward closures, one on the new cell state and one on the new hidden
state, because the tape keeps one gradient per recorded output and both
carry gradient into the next step. Each closure repeats the backward
arithmetic of the primitive ops the step is built from (8 GEMMs, 18 adds
and multiplies, 5 squashes), and calls ``accum`` in the reverse of their
tape order, so forward values and every gradient are bit-identical to the
composed graph. The eight per-gate GEMMs stay separate. With the gate
weights stacked, the input and hidden gradients would each be one GEMM
summing over all four gates, not four products accumulated in tape order,
so gradients would stop being bit-identical. Stacking would not pay for
the 3-step micro model that the gradient checks run either: concatenating
the per-gate weights once per sequence took 42 us there, against 11 us per
step saved by two GEMMs instead of eight (1 BLAS thread, 2-core VM).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import (Tensor, _bump, _record, _stable_sigmoid, _sum_to_vector,
                     rows_from_vector)

GATES = ("i", "f", "c", "o")
# checkpoint order of a cell's tensors
PARAM_NAMES = ("w_xi", "w_hi", "w_xf", "w_hf", "w_xc", "w_hc", "w_xo", "w_ho",
               "p_i", "p_f", "p_o", "b_i", "b_f", "b_c", "b_o", "h0", "c0")
# every parameter a step reads; h0 and c0 enter through the state
_STEP_PARAMS = PARAM_NAMES[:-2]


def orthogonal(rng, rows, cols, dtype=np.float32):
    """Orthonormal rows or columns (whichever fit) from a Gaussian draw."""
    a = rng.standard_normal((rows, cols))
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    q = u if u.shape == (rows, cols) else vt
    return q.astype(dtype)


class LstmParams:
    """All learned tensors of one cell, plus the output-gate squash choice."""

    def __init__(self, input_width, hidden, output_gate="tanh"):
        self.input_width = input_width
        self.hidden = hidden
        self.output_gate = output_gate

    def named_params(self):
        return [(name, getattr(self, name)) for name in PARAM_NAMES]


class LstmState:
    def __init__(self, h, c):
        self.h = h
        self.c = c


def init_lstm(input_width, hidden, rng, bias_init=-1.0, learn_c0=True,
              output_gate="tanh", dtype=np.float32):
    p = LstmParams(input_width, hidden, output_gate)
    for g in GATES:
        setattr(p, f"w_x{g}", Tensor(orthogonal(rng, input_width, hidden, dtype),
                                     requires_grad=True))
        setattr(p, f"w_h{g}", Tensor(orthogonal(rng, hidden, hidden, dtype),
                                     requires_grad=True))
    zeros = lambda: np.zeros(hidden, dtype=dtype)
    p.p_i = Tensor(zeros(), requires_grad=True)
    p.p_f = Tensor(zeros(), requires_grad=True)
    p.p_o = Tensor(zeros(), requires_grad=True)
    p.b_i = Tensor(np.full(hidden, bias_init, dtype=dtype), requires_grad=True)
    p.b_f = Tensor(np.full(hidden, bias_init, dtype=dtype), requires_grad=True)
    p.b_c = Tensor(zeros(), requires_grad=True)
    p.b_o = Tensor(np.full(hidden, bias_init, dtype=dtype), requires_grad=True)
    p.h0 = Tensor(zeros(), requires_grad=True)
    p.c0 = Tensor(zeros(), requires_grad=learn_c0)
    return p


def initial_state(p: LstmParams, batch):
    return LstmState(rows_from_vector(p.h0, batch), rows_from_vector(p.c0, batch))


def lstm_step(p: LstmParams, x, state: LstmState) -> LstmState:
    """One gate update: consume x, return the next (h, c)."""
    if x.ndim != 2 or x.shape[1] != p.input_width:
        raise DimensionError(f"lstm_step: input {x.shape} does not match width {p.input_width}")
    if state.h.shape != (x.shape[0], p.hidden) or state.c.shape != state.h.shape:
        raise DimensionError(
            f"lstm_step: state {state.h.shape}/{state.c.shape} for batch {x.shape[0]}, "
            f"hidden {p.hidden}")
    h_prev, c_prev = state.h, state.c
    xd, hd, cd = x.data, h_prev.data, c_prev.data
    # the parenthesization is the composed graph's: ((x W_x + h W_h) + c * p) + b
    i = _stable_sigmoid(((xd @ p.w_xi.data + hd @ p.w_hi.data) + cd * p.p_i.data) + p.b_i.data)
    f = _stable_sigmoid(((xd @ p.w_xf.data + hd @ p.w_hf.data) + cd * p.p_f.data) + p.b_f.data)
    cand = np.tanh((xd @ p.w_xc.data + hd @ p.w_hc.data) + p.b_c.data)
    c = f * cd + i * cand
    z_o = ((xd @ p.w_xo.data + hd @ p.w_ho.data) + c * p.p_o.data) + p.b_o.data
    tanh_gate = p.output_gate == "tanh"
    o = np.tanh(z_o) if tanh_gate else _stable_sigmoid(z_o)
    tc = np.tanh(c)

    needs_grad = (x.requires_grad or h_prev.requires_grad or c_prev.requires_grad
                  or any(getattr(p, n).requires_grad for n in _STEP_PARAMS))
    c_new = Tensor(c, requires_grad=needs_grad)
    h_new = Tensor(o * tc, requires_grad=needs_grad)
    b, hid = x.shape[0], p.hidden
    gemm = 4 * b * hid * (p.input_width + hid)
    _bump(mults=gemm + 6 * b * hid, adds=gemm + 12 * b * hid, activations=5 * b * hid)

    def linear_backward(accum, g, w_x, w_h):
        # z = x @ w_x + h @ w_h: the h GEMM was taped after the x GEMM
        accum(h_prev, g @ w_h.data.T)
        accum(w_h, hd.T @ g)
        accum(x, g @ w_x.data.T)
        accum(w_x, xd.T @ g)

    def c_backward(g, accum):
        # c = f * c_prev + i * cand
        accum(c_prev, g * f)
        g_zc = (g * i) * (1.0 - cand * cand)
        accum(p.b_c, _sum_to_vector(g_zc))
        linear_backward(accum, g_zc, p.w_xc, p.w_hc)
        g_zf = (g * cd) * f * (1.0 - f)
        accum(p.b_f, _sum_to_vector(g_zf))
        accum(c_prev, g_zf * p.p_f.data)
        accum(p.p_f, _sum_to_vector(g_zf * cd))
        linear_backward(accum, g_zf, p.w_xf, p.w_hf)
        g_zi = (g * cand) * i * (1.0 - i)
        accum(p.b_i, _sum_to_vector(g_zi))
        accum(c_prev, g_zi * p.p_i.data)
        accum(p.p_i, _sum_to_vector(g_zi * cd))
        linear_backward(accum, g_zi, p.w_xi, p.w_hi)

    def h_backward(g, accum):
        # h = o * tanh(c); the output-gate peephole reads the new c
        g_o = g * tc
        accum(c_new, (g * o) * (1.0 - tc * tc))
        g_zo = g_o * (1.0 - o * o) if tanh_gate else g_o * o * (1.0 - o)
        accum(p.b_o, _sum_to_vector(g_zo))
        accum(c_new, g_zo * p.p_o.data)
        accum(p.p_o, _sum_to_vector(g_zo * c))
        linear_backward(accum, g_zo, p.w_xo, p.w_ho)

    _record(c_new, c_backward)
    _record(h_new, h_backward)
    return LstmState(h_new, c_new)


def run_sequence(p: LstmParams, xs, state=None):
    """Fold lstm_step over xs (shallowest tap first); return the final h.

    The fold starts from ``state``, by default the learned initial state.
    """
    if not xs:
        raise ContractError("run_sequence: empty input sequence")
    if state is None:
        state = initial_state(p, xs[0].shape[0])
    for x in xs:
        state = lstm_step(p, x, state)
    return state.h
