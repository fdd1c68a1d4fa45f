"""Autodiff core: forward values, hand-computed gradients, tape contracts."""

import numpy as np
import pytest

from crmn.errors import ContractError, DimensionError, InputError
from crmn.gradcheck import numeric_gradient, relative_error
from crmn.tensor import (
    Tape, Tensor, add, backward, concat_cols, count_ops, matmul, mul,
    pad_cols, pad_maps, relu, reshape, rows_from_vector, sigmoid,
    softmax_cross_entropy, space_subsample, sum_all, tanh,
)


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
    with Tape() as tape:
        loss = sum_all(mul(x, x))
        tape.backward(loss)
        tape.backward(loss)
    assert np.array_equal(x.grad, [[4.0, 8.0]])
    x.zero_grad()
    assert x.grad is None


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

    with Tape() as tape:
        x.zero_grad()
        w.zero_grad()
        tape.backward(loss_fn())
    for tensor in (x, w):
        numeric = numeric_gradient(lambda: loss_fn().item(), tensor)
        assert relative_error(tensor.grad, numeric).max() < 1e-6
