"""Autodiff core: forward values, hand-computed gradients, tape contracts."""

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from crmn.errors import ContractError, DimensionError, InputError
from crmn.gradcheck import check_tensors
from crmn.layers import batch_norm, conv2d, global_avg_pool, meanpool2x2
from crmn.lstm import _STEP_PARAMS, LstmParams, LstmState, lstm_step
from crmn.model import adapt_tap, build_crmn
from crmn.resnet import NetworkConfig
from crmn.tensor import (
    Tape, Tensor, add, backward, concat_cols, count_ops, matmul, mul,
    pad_cols, pad_maps, relu, reshape, rows_from_vector, sigmoid,
    softmax_cross_entropy, space_subsample, sum_all, tanh,
)
from crmn.tensor import _stable_sigmoid


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def test_tensor_dtype_rules():
    # non-float input coerces to the float32 default, float input is kept
    assert Tensor([[1, 2]]).dtype == np.float32
    assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
    assert Tensor([1, 2], dtype=np.float64).dtype == np.float64
    x = Tensor([[1, 2]])
    assert x.shape == (1, 2)
    assert x.grad is None


def test_sum_all_gradient_is_ones():
    x = t64([[1.0, -2.0], [3.0, 4.0]])
    with Tape() as tape:
        loss = sum_all(x)
        tape.backward(loss)
    assert loss.item() == 6.0
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_square_sum_gradient_is_two_x():
    # d/dx sum(x * x) = 2x, checked at [1, 2, 3]
    x = t64([[1.0, 2.0, 3.0]])
    with Tape() as tape:
        tape.backward(sum_all(mul(x, x)))
    assert np.array_equal(x.grad, [[2.0, 4.0, 6.0]])


def test_matmul_hand_gradients():
    # loss = sum(A @ B): dA_ik = sum_j B_kj, dB_kj = sum_i A_ik
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    b = t64([[5.0, 6.0], [7.0, 8.0]])
    with Tape() as tape:
        tape.backward(sum_all(matmul(a, b)))
    assert np.array_equal(a.grad, [[11.0, 15.0], [11.0, 15.0]])
    assert np.array_equal(b.grad, [[4.0, 4.0], [6.0, 6.0]])


def test_matmul_identity_passes_gradient_through():
    x = t64(np.arange(6, dtype=np.float64).reshape(2, 3))
    eye = t64(np.eye(3), requires_grad=False)
    with Tape() as tape:
        out = matmul(x, eye)
        tape.backward(sum_all(out))
    assert np.array_equal(out.data, x.data)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_add_vector_broadcasts_over_trailing_axis():
    x = t64([[1.0, 2.0], [3.0, 4.0]])
    v = t64([10.0, 20.0])
    with Tape() as tape:
        out = add(x, v)
        tape.backward(sum_all(out))
    assert np.array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])
    assert np.array_equal(x.grad, np.ones((2, 2)))
    # vector gradient sums over the broadcast rows
    assert np.array_equal(v.grad, [2.0, 2.0])


def test_mul_vector_broadcast_gradients():
    x = t64([[1.0, 2.0], [3.0, 4.0]])
    v = t64([5.0, 7.0])
    with Tape() as tape:
        tape.backward(sum_all(mul(x, v)))
    assert np.array_equal(x.grad, [[5.0, 7.0], [5.0, 7.0]])
    assert np.array_equal(v.grad, [4.0, 6.0])  # column sums of x


def test_mismatched_shapes_raise_dimension_error():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        add(a, b)
    with pytest.raises(DimensionError):
        mul(a, Tensor(np.ones(2)))  # vector must match the trailing axis


def test_sigmoid_tanh_relu_values_and_gradients():
    x = t64([[0.0, -1.0, 2.0]])
    with Tape() as tape:
        tape.backward(sum_all(sigmoid(x)))
    # sigmoid'(0) = 0.25
    assert x.grad[0, 0] == pytest.approx(0.25, abs=1e-12)

    y = t64([[0.0]])
    with Tape() as tape:
        out = tanh(y)
        tape.backward(sum_all(out))
    assert out.item() == 0.0
    assert y.grad[0, 0] == pytest.approx(1.0, abs=1e-12)

    z = t64([[-1.0, 3.0]])
    with Tape() as tape:
        out = relu(z)
        tape.backward(sum_all(out))
    assert np.array_equal(out.data, [[0.0, 3.0]])
    assert np.array_equal(z.grad, [[0.0, 1.0]])


def test_sigmoid_is_stable_at_extreme_inputs():
    x = Tensor(np.array([[800.0, -800.0]]), dtype=np.float64)
    with np.errstate(over="raise"):
        out = sigmoid(x)
    assert out.data[0, 0] == pytest.approx(1.0)
    assert out.data[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_reshape_preserves_data_and_routes_gradient():
    x = t64(np.arange(6, dtype=np.float64).reshape(2, 3))
    with Tape() as tape:
        y = reshape(x, (3, 2))
        tape.backward(sum_all(mul(y, y)))
    assert np.array_equal(y.data, x.data.reshape(3, 2))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_concat_cols_splits_gradient():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    b = t64([[5.0], [6.0]])
    with Tape() as tape:
        out = concat_cols(a, b)
        tape.backward(sum_all(mul(out, out)))
    assert out.shape == (2, 3)
    assert np.array_equal(out.data, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
    assert np.array_equal(a.grad, 2.0 * a.data)
    assert np.array_equal(b.grad, 2.0 * b.data)


def test_pad_cols_appends_zeros_at_the_tail():
    x = t64([[1.0, 2.0], [3.0, 4.0]])
    with Tape() as tape:
        out = pad_cols(x, 5)
        tape.backward(sum_all(mul(out, out)))
    assert out.shape == (2, 5)
    assert np.array_equal(out.data[:, 2:], np.zeros((2, 3)))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_pad_cols_noop_and_overflow():
    x = Tensor(np.ones((2, 4)))
    assert pad_cols(x, 4) is x
    with pytest.raises(ContractError):
        pad_cols(x, 3)


def test_rows_from_vector_tiles_and_sums_gradient():
    v = t64([1.0, 2.0, 3.0])
    with Tape() as tape:
        out = rows_from_vector(v, 4)
        tape.backward(sum_all(out))
    assert out.shape == (4, 3)
    assert np.array_equal(out.data, np.tile(v.data, (4, 1)))
    assert np.array_equal(v.grad, [4.0, 4.0, 4.0])


def test_space_subsample_keeps_even_positions():
    x = t64(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    with Tape() as tape:
        out = space_subsample(x)
        tape.backward(sum_all(out))
    assert out.shape == (1, 1, 2, 2)
    assert np.array_equal(out.data[0, 0], [[0.0, 2.0], [8.0, 10.0]])
    grad = np.zeros((4, 4))
    grad[::2, ::2] = 1.0
    assert np.array_equal(x.grad[0, 0], grad)


def test_pad_maps_appends_zero_channels():
    x = t64(np.ones((2, 2, 3, 3)))
    with Tape() as tape:
        out = pad_maps(x, 5)
        tape.backward(sum_all(mul(out, out)))
    assert out.shape == (2, 5, 3, 3)
    assert np.array_equal(out.data[:, 2:], np.zeros((2, 3, 3, 3)))
    assert np.array_equal(x.grad, 2.0 * np.ones((2, 2, 3, 3)))


def test_cross_entropy_uniform_logits_is_log_classes():
    logits = t64(np.zeros((4, 10)))
    labels = np.array([0, 3, 7, 9])
    with Tape() as tape:
        loss = softmax_cross_entropy(logits, labels)
        tape.backward(loss)
    assert loss.item() == pytest.approx(np.log(10.0), rel=1e-12)
    # gradient is (softmax - onehot) / batch
    expected = np.full((4, 10), 0.1)
    expected[np.arange(4), labels] -= 1.0
    assert np.allclose(logits.grad, expected / 4.0, atol=1e-12)


def test_cross_entropy_saturates_softly():
    logits = np.zeros((2, 10))
    logits[np.arange(2), [1, 4]] = 30.0
    loss = softmax_cross_entropy(t64(logits), np.array([1, 4]))
    assert loss.item() < 1e-9


def test_cross_entropy_rejects_bad_labels():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(InputError):
        softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(InputError):
        softmax_cross_entropy(logits, np.array([-1, 0]))


def test_gradients_accumulate_across_backward_calls():
    x = t64([[1.0, 2.0]])
    for _ in range(2):
        with Tape() as tape:
            tape.backward(sum_all(mul(x, x)))
    assert np.array_equal(x.grad, [[4.0, 8.0]])
    x.zero_grad()
    assert x.grad is None
    with Tape() as tape:
        loss = sum_all(mul(x, x))
        tape.backward(loss)
        with pytest.raises(ContractError, match="spent"):
            tape.backward(loss)  # a tape runs backward once
    assert np.array_equal(x.grad, [[2.0, 4.0]])


def test_backward_rejects_non_scalar_and_off_tape_losses():
    x = t64([[1.0, 2.0]])
    with Tape() as tape:
        y = mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)  # not a scalar
    stray = sum_all(t64([[1.0]]))  # built outside any tape
    with Tape() as tape:
        with pytest.raises(ContractError):
            tape.backward(stray)
        constant = sum_all(Tensor(np.ones(2)))  # on a tape, but needs no gradient
        with pytest.raises(ContractError):
            tape.backward(constant)


def test_module_backward_uses_active_tape():
    x = t64([[3.0]])
    with pytest.raises(ContractError):
        backward(sum_all(x))  # no tape open
    with Tape():
        backward(sum_all(mul(x, x)))
    assert np.array_equal(x.grad, [[6.0]])


def test_count_ops_matmul_and_activation_convention():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 4)))
    with count_ops() as ops:
        matmul(a, b)
        relu(Tensor(np.ones((2, 3))))
    # matmul: m*p*k each of mults and adds; relu: one activation per element
    assert ops.mults == 24
    assert ops.adds == 24
    assert ops.activations == 6
    assert ops.total == 54


def test_data_movement_is_free_under_op_counting():
    x = Tensor(np.ones((2, 4)))
    with count_ops() as ops:
        reshape(x, (4, 2))
        pad_cols(x, 6)
        concat_cols(x, x)
    assert ops.total == 0


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = t64(rng.standard_normal((3, 4)))
    w = t64(rng.standard_normal((4, 2)))

    def loss_fn():
        return sum_all(mul(tanh(matmul(x, w)), sigmoid(matmul(x, w))))

    assert check_tensors("composite", loss_fn, [x, w]).max_rel_err < 1e-6


def masked_sigmoid(x):
    """The boolean-mask form of the stable sigmoid: the oracle of the np.where form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stable_sigmoid_matches_the_masked_form_bit_for_bit(dtype):
    rng = np.random.default_rng(31)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 88.0, -88.0,
                        1e-30, -1e-30], dtype=dtype)
    cases = [special, special.reshape(1, -1)]
    for size in (1, 2, 7, 100, 5000, 30000):
        for scale in (1.0, 10.0, 100.0):
            cases.append((rng.standard_normal(size) * scale).astype(dtype))
    cases.append(rng.standard_normal((50, 100)).astype(dtype))
    for x in cases:
        with np.errstate(all="ignore"):
            expected = masked_sigmoid(x)
        got = _stable_sigmoid(x)
        assert got.dtype == x.dtype == expected.dtype
        assert got.shape == x.shape
        assert np.array_equal(got, expected, equal_nan=True)


def test_backward_frees_each_gradient_once_its_closure_has_read_it():
    # a chain of 40 ops: keeping every intermediate gradient to the end of the
    # pass would need 40 arrays; freeing each once consumed needs a few
    x = t64(np.random.default_rng(3).standard_normal(200_000))
    one_array = x.data.nbytes
    with Tape() as tape:
        y = x
        for _ in range(40):
            y = tanh(y)
        loss = sum_all(y)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert x.grad is not None
    assert peak < 6 * one_array


def test_backward_frees_each_activation_once_it_has_passed_its_op():
    x = t64(np.random.default_rng(4).standard_normal(1000))
    with Tape() as tape:
        h = tanh(x)
        y = tanh(h)
        refs = [weakref.ref(h.data), weakref.ref(y.data)]
        loss = sum_all(mul(y, y))
        del h, y
        # when h's op runs its closure, y's op and every reader of y are done
        out, fn = tape._entries[0]
        seen = []
        tape._entries[0] = (out, lambda g, accum, fn=fn: (
            seen.append([r() is None for r in refs]), fn(g, accum)))
        del out, fn
        tape.backward(loss)
        assert seen == [[False, True]]  # h is still read by the closure running
        assert [r() is None for r in refs] == [True, True]  # the block is still open
    assert x.grad is not None


def test_only_leaves_keep_gradients_after_backward():
    x = t64([[0.5, -1.0, 2.0]])
    w = t64([[0.3], [-0.2], [0.1]])
    with Tape() as tape:
        z = matmul(x, w)
        h = tanh(z)
        loss = sum_all(mul(h, h))
        tape.backward(loss)
    assert z.grad is None and h.grad is None and loss.grad is None
    g_z = 2.0 * h.data * (1.0 - h.data * h.data)
    assert np.array_equal(x.grad, g_z @ w.data.T)
    assert np.array_equal(w.grad, x.data.T @ g_z)


def test_a_model_backward_leaves_grads_on_its_parameters_only():
    cfg = NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5).validate()
    model = build_crmn(cfg, seed=0, dtype=np.float64)
    x = Tensor(np.random.default_rng(0).random((2, 3, 32, 32)), dtype=np.float64)
    with Tape() as tape:
        logits, parts = model.forward(x, training=True, return_parts=True)
        tape.backward(softmax_cross_entropy(logits, np.array([0, 2])))
    intermediates = [logits, parts["pool_out"], parts["hidden"], *parts["taps"]]
    assert all(t.grad is None for t in intermediates)
    assert all(t.grad is not None for _, t, _ in model.named_params())


def _lstm_step(x, h, c, *params):
    p = LstmParams(3, 2)
    for name, t in zip(_STEP_PARAMS, params):
        setattr(p, name, t)
    state = lstm_step(p, x, LstmState(h, c))
    return state.h, state.c


# every op of tensor and layers, lstm_step and adapt_tap, with the shapes of its tensor inputs
TAPED_OPS = {
    "matmul": (matmul, [(3, 4), (4, 2)]),
    "add": (add, [(3, 5), (3, 5)]),
    "add_vector": (add, [(3, 5), (5,)]),
    "mul": (mul, [(3, 5), (3, 5)]),
    "mul_vector": (mul, [(3, 5), (5,)]),
    "sigmoid": (sigmoid, [(2, 3)]),
    "tanh": (tanh, [(2, 3)]),
    "relu": (relu, [(2, 3)]),
    "sum_all": (sum_all, [(2, 3)]),
    "reshape": (lambda x: reshape(x, (6,)), [(2, 3)]),
    "concat_cols": (concat_cols, [(2, 3), (2, 4)]),
    "pad_cols": (lambda x: pad_cols(x, 5), [(2, 3)]),
    "rows_from_vector": (lambda v: rows_from_vector(v, 3), [(4,)]),
    "space_subsample": (space_subsample, [(2, 2, 4, 4)]),
    "pad_maps": (lambda x: pad_maps(x, 4), [(2, 2, 4, 4)]),
    "softmax_cross_entropy": (lambda z: softmax_cross_entropy(z, [0, 2]), [(2, 3)]),
    "conv2d": (conv2d, [(2, 3, 5, 5), (4, 3, 3, 3)]),
    "conv2d_stride2": (lambda x, w: conv2d(x, w, 2), [(2, 3, 5, 5), (4, 3, 3, 3)]),
    "batch_norm_train": (lambda x, s, b: batch_norm(x, s, b, np.zeros(2), np.ones(2), True),
                         [(3, 2, 4, 4), (2,), (2,)]),
    "batch_norm_eval": (lambda x, s, b: batch_norm(x, s, b, np.zeros(2), np.ones(2), False),
                        [(3, 2, 4, 4), (2,), (2,)]),
    "batch_norm_add_relu": (lambda x, s, b, a: batch_norm(x, s, b, np.zeros(2), np.ones(2), True,
                                                         add=a, relu=True),
                            [(3, 2, 4, 4), (2,), (2,), (3, 2, 4, 4)]),
    "meanpool2x2": (meanpool2x2, [(2, 2, 4, 4)]),
    "adapt_tap": (adapt_tap, [(2, 2, 4, 4)]),
    "global_avg_pool": (global_avg_pool, [(2, 2, 4, 4)]),
    "lstm_step": (_lstm_step, [(2, 3), (2, 2), (2, 2)] + [(3, 2), (2, 2)] * 4 + [(2,)] * 7),
}


@pytest.mark.parametrize("op, shapes", TAPED_OPS.values(), ids=TAPED_OPS)
def test_an_output_is_taped_exactly_when_an_input_needs_a_gradient(op, shapes):
    arrays = [np.random.default_rng(0).standard_normal(s) for s in shapes]
    # None freezes every input; k lets input k alone need a gradient
    for grad_at in [None, *range(len(shapes))]:
        inputs = [Tensor(a, requires_grad=k == grad_at) for k, a in enumerate(arrays)]
        with Tape() as tape:
            outs = op(*inputs)
        outs = outs if isinstance(outs, tuple) else (outs,)
        taped = grad_at is not None
        assert [o.requires_grad for o in outs] == [taped] * len(outs), grad_at
        recorded = {id(out) for out, _ in tape._entries}
        assert len(tape._entries) == len(recorded)
        assert recorded == ({id(o) for o in outs} if taped else set()), grad_at


def test_tapes_and_counters_in_concurrent_threads_see_only_their_own_ops():
    # each thread records onto its own tape and charges its own counter
    rng = np.random.default_rng(31)
    x, w = rng.standard_normal((4, 8, 12, 12)), rng.standard_normal((8, 8, 3, 3))
    passes = 20
    conv_ops = 2 * (4 * 8 * 12 * 12) * (8 * 3 * 3)  # a multiply and an add per tap
    want = passes * (conv_ops + 4 * 8 * 12 * 12)  # and sum_all's adds
    errors, counts = [], {}

    def work(i):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        try:
            with count_ops() as ops:
                for _ in range(passes):
                    with Tape() as tape:
                        tape.backward(sum_all(conv2d(xt, wt)))
            counts[i] = ops.total
        except ContractError as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert counts == {i: want for i in range(4)}
