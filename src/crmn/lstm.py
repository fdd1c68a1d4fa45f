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
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tensor, add, matmul, mul, rows_from_vector, sigmoid, tanh

GATES = ("i", "f", "c", "o")


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
        names = []
        for g in GATES:
            names += [f"w_x{g}", f"w_h{g}"]
        names += ["p_i", "p_f", "p_o", "b_i", "b_f", "b_c", "b_o", "h0", "c0"]
        return [(name, getattr(self, name)) for name in names]


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
    z_i = add(add(add(matmul(x, p.w_xi), matmul(h_prev, p.w_hi)), mul(c_prev, p.p_i)), p.b_i)
    i_gate = sigmoid(z_i)
    z_f = add(add(add(matmul(x, p.w_xf), matmul(h_prev, p.w_hf)), mul(c_prev, p.p_f)), p.b_f)
    f_gate = sigmoid(z_f)
    z_c = add(add(matmul(x, p.w_xc), matmul(h_prev, p.w_hc)), p.b_c)
    candidate = tanh(z_c)
    c_new = add(mul(f_gate, c_prev), mul(i_gate, candidate))
    z_o = add(add(add(matmul(x, p.w_xo), matmul(h_prev, p.w_ho)), mul(c_new, p.p_o)), p.b_o)
    o_gate = tanh(z_o) if p.output_gate == "tanh" else sigmoid(z_o)
    h_new = mul(o_gate, tanh(c_new))
    return LstmState(h_new, c_new)


def run_sequence(p: LstmParams, xs):
    """Fold lstm_step over xs (shallowest tap first); return the final h."""
    if not xs:
        raise ContractError("run_sequence: empty input sequence")
    state = initial_state(p, xs[0].shape[0])
    for x in xs:
        state = lstm_step(p, x, state)
    return state.h
