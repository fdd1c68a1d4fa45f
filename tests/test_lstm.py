"""Peephole cell: gate arithmetic, initialization, sequence folding."""

import numpy as np
import pytest

from crmn.errors import ContractError, DimensionError
from crmn.lstm import (
    LstmState, init_lstm, initial_state, lstm_step, orthogonal, run_sequence,
)
from crmn.tensor import Tape, Tensor, add, count_ops, matmul, mul, sigmoid, sum_all, tanh


def make_zeroed(width, hidden, output_gate="tanh"):
    """Cell with all weights, peepholes, and biases cleared."""
    p = init_lstm(width, hidden, np.random.default_rng(0),
                  output_gate=output_gate, dtype=np.float64)
    for name, t in p.named_params():
        t.data[:] = 0.0
    return p


def state_with_cell(p, batch, c_value):
    p.c0.data[:] = c_value  # broadcast into every batch row
    return initial_state(p, batch)


def test_orthogonal_rows_or_columns():
    rng = np.random.default_rng(0)
    wide = orthogonal(rng, 5, 9, dtype=np.float64)
    assert np.allclose(wide @ wide.T, np.eye(5), atol=1e-10)
    tall = orthogonal(rng, 9, 5, dtype=np.float64)
    assert np.allclose(tall.T @ tall, np.eye(5), atol=1e-10)
    square = orthogonal(rng, 6, 6, dtype=np.float32)
    assert np.allclose(square @ square.T, np.eye(6), atol=1e-5)


def test_init_shapes_biases_and_flags():
    p = init_lstm(8, 5, np.random.default_rng(1), bias_init=-1.0)
    assert p.w_xi.shape == (8, 5) and p.w_hi.shape == (5, 5)
    for name in ("b_i", "b_f", "b_o"):
        assert np.array_equal(getattr(p, name).data, np.full(5, -1.0, np.float32))
    assert not p.b_c.data.any()
    for name in ("p_i", "p_f", "p_o", "h0", "c0"):
        assert not getattr(p, name).data.any()
    assert p.h0.requires_grad and p.c0.requires_grad
    frozen = init_lstm(8, 5, np.random.default_rng(1), learn_c0=False)
    assert not frozen.c0.requires_grad


def test_zeroed_cell_halves_its_cell_state():
    # i = f = sigmoid(0) = 1/2 and the candidate is tanh(0) = 0,
    # so c_new = c_prev / 2; a zero output gate (tanh squash) gives h = 0
    p = make_zeroed(3, 4)
    x = Tensor(np.ones((2, 3)), dtype=np.float64)
    state = state_with_cell(p, 2, 0.8)
    out = lstm_step(p, x, state)
    assert np.allclose(out.c.data, 0.4, atol=1e-12)
    assert np.array_equal(out.h.data, np.zeros((2, 4)))


def test_sigmoid_output_gate_gives_half_tanh():
    p = make_zeroed(3, 4, output_gate="sigmoid")
    x = Tensor(np.zeros((2, 3)), dtype=np.float64)
    out = lstm_step(p, x, state_with_cell(p, 2, 0.8))
    assert np.allclose(out.h.data, 0.5 * np.tanh(0.4), atol=1e-12)


def test_output_gate_peephole_sees_the_new_cell():
    p = make_zeroed(3, 4)
    p.p_o.data[:] = 1.0
    x = Tensor(np.zeros((2, 3)), dtype=np.float64)
    out = lstm_step(p, x, state_with_cell(p, 2, 1.0))
    # c_new = 0.5, so o = tanh(0.5); a cell-prev peephole would give tanh(1.0)
    assert np.allclose(out.h.data, np.tanh(0.5) * np.tanh(0.5), atol=1e-12)


def test_saturated_gates_carry_the_cell_through():
    p = make_zeroed(3, 4)
    p.b_f.data[:] = 30.0   # forget gate pinned open
    p.b_i.data[:] = -30.0  # input gate pinned shut
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3)), dtype=np.float64)
    state = state_with_cell(p, 2, 0.7)
    out = lstm_step(p, x, state)
    assert np.allclose(out.c.data, 0.7, atol=1e-9)


def test_input_peephole_changes_the_gate():
    rng = np.random.default_rng(3)
    p = init_lstm(3, 4, np.random.default_rng(4), dtype=np.float64)
    x = Tensor(rng.standard_normal((2, 3)), dtype=np.float64)
    state = state_with_cell(p, 2, 0.9)
    base = lstm_step(p, x, state).h.data.copy()
    p.p_i.data[:] = 0.8
    bumped = lstm_step(p, x, state_with_cell(p, 2, 0.9)).h.data
    assert not np.allclose(base, bumped)


def test_run_sequence_matches_manual_fold():
    rng = np.random.default_rng(5)
    p = init_lstm(6, 5, np.random.default_rng(6), dtype=np.float64)
    xs = [Tensor(rng.standard_normal((3, 6)), dtype=np.float64) for _ in range(15)]
    h = run_sequence(p, xs)
    states = [initial_state(p, 3)]
    for x in xs:
        states.append(lstm_step(p, x, states[-1]))
    assert np.array_equal(h.data, states[-1].h.data)
    # resuming from the state after k steps folds the rest identically
    for k in (1, 7, 14):
        assert np.array_equal(run_sequence(p, xs[k:], states[k]).data, h.data)
    # single-element base case
    assert np.array_equal(
        run_sequence(p, xs[:1]).data,
        lstm_step(p, xs[0], initial_state(p, 3)).h.data)


def test_run_sequence_rejects_empty_input():
    p = init_lstm(4, 3, np.random.default_rng(0))
    with pytest.raises(ContractError):
        run_sequence(p, [])


def test_step_rejects_mismatched_shapes():
    p = init_lstm(4, 3, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        lstm_step(p, Tensor(np.zeros((2, 5), np.float32)), initial_state(p, 2))
    bad_state = initial_state(p, 3)
    with pytest.raises(DimensionError):
        lstm_step(p, Tensor(np.zeros((2, 4), np.float32)), bad_state)


def test_sequence_order_matters():
    rng = np.random.default_rng(7)
    p = init_lstm(6, 5, np.random.default_rng(8), dtype=np.float64)
    xs = [Tensor(rng.standard_normal((2, 6)), dtype=np.float64) for _ in range(5)]
    assert not np.allclose(run_sequence(p, xs).data,
                           run_sequence(p, xs[::-1]).data)


def test_zero_input_weights_make_the_cell_input_blind():
    p = init_lstm(6, 5, np.random.default_rng(9), dtype=np.float64)
    for g in "ifco":
        getattr(p, f"w_x{g}").data[:] = 0.0
    rng = np.random.default_rng(10)
    xs_a = [Tensor(rng.standard_normal((2, 6)), dtype=np.float64) for _ in range(4)]
    xs_b = [Tensor(rng.standard_normal((2, 6)), dtype=np.float64) for _ in range(4)]
    assert np.array_equal(run_sequence(p, xs_a).data, run_sequence(p, xs_b).data)


def test_hidden_state_is_bounded_by_one():
    rng = np.random.default_rng(11)
    p = init_lstm(6, 5, np.random.default_rng(12), dtype=np.float64)
    xs = [Tensor(100.0 * rng.standard_normal((2, 6)), dtype=np.float64)
          for _ in range(30)]
    h = run_sequence(p, xs)
    assert np.abs(h.data).max() <= 1.0


def test_initial_cell_state_receives_gradient_over_long_sequences():
    rng = np.random.default_rng(13)
    p = init_lstm(6, 5, np.random.default_rng(14), dtype=np.float64)
    xs = [Tensor(rng.standard_normal((2, 6)), dtype=np.float64) for _ in range(15)]
    with Tape() as tape:
        tape.backward(sum_all(run_sequence(p, xs)))
    assert p.c0.grad is not None
    assert np.abs(p.c0.grad).max() > 0.0
    assert np.abs(p.h0.grad).max() > 0.0


def test_batch_rows_evolve_independently():
    rng = np.random.default_rng(15)
    p = init_lstm(6, 5, np.random.default_rng(16), dtype=np.float64)
    xs = [rng.standard_normal((2, 6)) for _ in range(4)]
    joint = run_sequence(p, [Tensor(x, dtype=np.float64) for x in xs]).data
    for row in range(2):
        solo = run_sequence(
            p, [Tensor(x[row:row + 1], dtype=np.float64) for x in xs]).data
        assert np.allclose(joint[row], solo[0], atol=1e-12)


def test_named_params_cover_every_tensor_once():
    p = init_lstm(4, 3, np.random.default_rng(0))
    names = [n for n, _ in p.named_params()]
    assert len(names) == len(set(names)) == 17  # 8 matrices, 3 peepholes, 4 biases, h0, c0


def composed_step(p, x, state):
    """The step as a graph of primitive taped ops: the oracle of the fused step."""
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


def run_taped(step, dtype, output_gate, steps, width, hidden, batch):
    """Fold ``step`` under a tape and an op counter; the loss reads every h and c."""
    rng = np.random.default_rng(17)
    p = init_lstm(width, hidden, np.random.default_rng(18), output_gate=output_gate,
                  dtype=dtype)
    for name in ("p_i", "p_f", "p_o", "h0", "c0"):
        getattr(p, name).data += (rng.standard_normal(hidden) * 0.3).astype(dtype)
    xs = [Tensor(rng.standard_normal((batch, width)), requires_grad=True, dtype=dtype)
          for _ in range(steps)]
    weights = [Tensor(rng.standard_normal((batch, hidden)), dtype=dtype)
               for _ in range(2 * steps)]
    entries, states = [], []
    with Tape() as tape, count_ops() as ops:
        state = initial_state(p, batch)
        for x in xs:
            before = len(tape._entries)
            state = step(p, x, state)
            entries.append(len(tape._entries) - before)
            states.append(state)
        # taped after every step, so each h and c has the loss's gradient
        # before the next step's backward adds to it
        loss = None
        for k, s in enumerate(states):
            for t, w in ((s.h, weights[2 * k]), (s.c, weights[2 * k + 1])):
                term = sum_all(mul(t, w))
                loss = term if loss is None else add(loss, term)
        tape.backward(loss)
    grads = [(name, t.grad) for name, t in p.named_params()]
    grads += [(f"x{k}", x.grad) for k, x in enumerate(xs)]
    return states, grads, ops.total, entries


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("output_gate", ["tanh", "sigmoid"])
@pytest.mark.parametrize("steps,width,hidden,batch", [
    (3, 8, 5, 2), (3, 1024, 5, 2), (15, 4096, 100, 50), (4, 16, 6, 1)])
def test_fused_step_matches_the_composed_ops_bit_for_bit(
        dtype, output_gate, steps, width, hidden, batch):
    shape = (steps, width, hidden, batch)
    states, grads, total, entries = run_taped(lstm_step, dtype, output_gate, *shape)
    ref_states, ref_grads, ref_total, _ = run_taped(composed_step, dtype, output_gate, *shape)
    for state, ref in zip(states, ref_states):
        assert state.h.dtype == state.c.dtype == dtype
        assert np.array_equal(state.h.data, ref.h.data)
        assert np.array_equal(state.c.data, ref.c.data)
    assert len(grads) == 17 + steps
    for (name, g), (_, ref) in zip(grads, ref_grads):
        assert g is not None and ref is not None, name
        assert g.dtype == ref.dtype, name
        assert np.array_equal(g, ref), name
    assert total == ref_total
    assert max(entries) <= 2
