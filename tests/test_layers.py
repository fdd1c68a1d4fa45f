"""Convolution, batch norm, pooling, dense: values against hand arithmetic."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from crmn import layers
from crmn.errors import ContractError, DimensionError
from crmn.gradcheck import check_tensors
from crmn.layers import (
    BatchNorm, Dense, batch_norm, conv2d, global_avg_pool, he_conv_weight,
    he_dense_weight, meanpool2x2,
)
from crmn.tensor import Tape, Tensor, add, count_ops, mul, pad_maps, sum_all
from crmn.tensor import relu as tensor_relu


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def test_conv_ones_kernel_counts_neighbourhood():
    # all-ones 3x3 kernel over an all-ones 5x5 image with zero padding:
    # corners see 4 pixels, edges 6, interior 9
    x = Tensor(np.ones((1, 1, 5, 5)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w).data[0, 0]
    assert out[0, 0] == 4.0
    assert out[0, 2] == 6.0
    assert out[2, 2] == 9.0
    # 4 corners * 4 + 12 edge cells * 6 + 9 interior cells * 9
    assert out.sum() == 169.0


def test_conv_delta_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)))
    w = np.zeros((3, 3, 3, 3), dtype=np.float64)
    for m in range(3):
        w[m, m, 1, 1] = 1.0  # centre tap on the matching input map
    out = conv2d(x, Tensor(w))
    assert np.allclose(out.data, x.data, atol=1e-6)


def test_conv_output_extents():
    x = Tensor(np.zeros((1, 2, 32, 32)))
    w = Tensor(np.zeros((4, 2, 3, 3)))
    assert conv2d(x, w).shape == (1, 4, 32, 32)
    assert conv2d(x, w, stride=2).shape == (1, 4, 16, 16)
    x4 = Tensor(np.zeros((1, 1, 4, 4)))
    w1 = Tensor(np.zeros((1, 1, 3, 3)))
    assert conv2d(x4, w1, stride=2).shape == (1, 1, 2, 2)


def test_conv_stride2_samples_even_positions():
    # delta kernel + stride 2 picks input positions (0,0), (0,2), ...
    x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = conv2d(x, Tensor(w), stride=2)
    assert np.array_equal(out.data[0, 0], [[0.0, 2.0], [8.0, 10.0]])


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    x = t64(rng.standard_normal((2, 2, 5, 5)))
    w = t64(0.3 * rng.standard_normal((3, 2, 3, 3)))

    for stride in (1, 2):
        entry = check_tensors("conv2d", lambda: sum_all(conv2d(x, w, stride=stride)), [x, w])
        assert entry.max_rel_err < 1e-6


@pytest.mark.parametrize("ci, co, extent, k, stride, x_grad", [
    (2, 3, 5, 3, 1, True),
    (2, 3, 5, 3, 2, True),   # odd extent: 5 -> 3
    (3, 2, 4, 1, 1, True),   # 1x1 kernel, no padding
    (3, 2, 5, 1, 2, True),
    (2, 2, 5, 3, 2, False),  # frozen input: only the weight gets a gradient
])
def test_conv_gradients_under_a_weighted_loss(ci, co, extent, k, stride, x_grad):
    # a random weighting gives each output its own upstream gradient, so an
    # error that is symmetric across outputs cannot cancel out
    rng = np.random.default_rng(11)
    x = t64(rng.standard_normal((2, ci, extent, extent)), requires_grad=x_grad)
    w = t64(0.3 * rng.standard_normal((co, ci, k, k)))
    ho = (extent + 2 * ((k - 1) // 2) - k) // stride + 1
    weights = Tensor(rng.standard_normal((2, co, ho, ho)), dtype=np.float64)

    def loss_fn():
        return sum_all(conv2d(x, w, stride=stride) * weights)

    with Tape() as tape:
        tape.backward(loss_fn())
    assert (x.grad is not None) == x_grad
    probed = [x, w] if x_grad else [w]
    assert all(tensor.grad.shape == tensor.shape for tensor in probed)
    assert check_tensors("conv2d", loss_fn, probed).max_rel_err < 1e-6


def _rows_first_conv_forward(x, weight, stride):
    """The (b*ho*wo) x (ci*k*k) forward the batched GEMM replaced, kept as an oracle."""
    b, ci, h, w = x.shape
    co, _, k, _ = weight.shape
    pad = (k - 1) // 2
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(b, ci, ho, wo, k, k),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * ho * wo, ci * k * k)
    flat = cols @ weight.reshape(co, ci * k * k).T
    return np.ascontiguousarray(flat.reshape(b, ho, wo, co).transpose(0, 3, 1, 2))


# normwise float32 error bounds of (output, x's gradient, weight's gradient) by shape
# (ci, co, extent), about three times the column-matrix forward's readings at seeds 0-4:
# the stem read at most 9.6e-8, 2.2e-7 and 1.7e-7; 16 maps at 32x32 2.2e-7, 2.2e-7 and
# 3.4e-7; 32 maps at 16x16 3.0e-7, 3.0e-7 and 2.9e-7; 64 maps at 8x8 2.9e-7, 2.9e-7
# and 1.5e-7. The per-tap forward of the three trunk shapes reads 9.5e-8, 1.2e-7 and
# 1.6e-7: each output is a sum of k*k partial dot products of ci terms, not one of ci*k*k.
_CONV_PRECISION = {
    (3, 16, 32): (3e-7, 6.5e-7, 5e-7),
    (16, 16, 32): (6.5e-7, 6.5e-7, 1e-6),
    (32, 32, 16): (9e-7, 9e-7, 9e-7),
    (64, 64, 8): (9e-7, 9e-7, 4.5e-7),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, ci, co, extent, k, stride, exact", [
    (4, 16, 16, 32, 3, 1, False),  # stage 1: per-tap sums, another summation order
    (4, 3, 16, 32, 3, 1, True),    # stem
    (4, 16, 32, 32, 3, 2, True),   # stage transition, ci != co
    (4, 16, 32, 32, 1, 2, True),   # 1x1 projection shortcut
    (2, 2, 3, 5, 3, 2, False),     # odd extent: 5 -> 3
    (1, 16, 16, 8, 3, 1, False),   # batch 1
])
def test_conv_forward_matches_the_rows_first_oracle(b, ci, co, extent, k, stride, exact,
                                                    dtype):
    # exact: bit-identical on the development machine (OpenBLAS); elsewhere
    # only the GEMM's summation order may differ, so the bound is normwise
    rng = np.random.default_rng(13)
    x = rng.standard_normal((b, ci, extent, extent)).astype(dtype)
    w = rng.standard_normal((co, ci, k, k)).astype(dtype)
    got = conv2d(Tensor(x), Tensor(w), stride=stride).data
    want = _rows_first_conv_forward(x, w, stride)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    if exact:
        assert np.array_equal(got, want)
    else:
        bound = _CONV_PRECISION.get((ci, co, extent), (1e-6,))[0]
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


def test_conv_forward_of_a_sliced_view_matches_its_copy():
    rng = np.random.default_rng(14)
    base = rng.standard_normal((4, 32, 34, 34)).astype(np.float32)
    view = base[:, ::2, 1:-1, 1:-1]  # every other map, border cropped
    assert not view.flags.c_contiguous
    w = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
    got = conv2d(Tensor(view), Tensor(w)).data
    assert np.array_equal(got, conv2d(Tensor(view.copy()), Tensor(w)).data)
    want = _rows_first_conv_forward(view, w, 1)
    assert np.linalg.norm(got - want) <= _CONV_PRECISION[16, 16, 32][0] * np.linalg.norm(want)


def _images_per_chunk(monkeypatch, images, ci, k, out_extent, dtype):
    # the column budget that makes conv_values stream `images` images per chunk
    per_image = ci * k * k * out_extent * out_extent * np.dtype(dtype).itemsize
    monkeypatch.setattr(layers, "_COLUMN_BYTES", images * per_image)


def _tap_images_per_chunk(monkeypatch, images, ci, co, k, extent, dtype):
    # the budget that makes a stride-1 per-tap convolution stream `images` images per chunk:
    # each image's padded input with its tail slack, and its sums and products over the
    # padded width
    padded = extent + k - 1
    per_image = ci * (padded * padded + k - 1) + 2 * co * extent * padded
    per_image *= np.dtype(dtype).itemsize
    monkeypatch.setattr(layers, "_COLUMN_BYTES", images * per_image)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (1, 1), (1, 2)])
@pytest.mark.parametrize("images", [1, 3, 7], ids=["one-per-chunk", "partial-last",
                                                   "whole-batch"])
def test_conv_forward_chunks_match_the_rows_first_oracle(monkeypatch, images, k, stride,
                                                         dtype):
    rng = np.random.default_rng(15)
    base = rng.standard_normal((7, 32, 18, 18)).astype(dtype)
    x = base[:, ::2, 1:-1, 1:-1]  # 7 images, 16 maps of 16x16, not contiguous
    w = rng.standard_normal((16, 16, k, k)).astype(dtype)

    def run(images):
        if (k, stride) == (3, 1):
            _tap_images_per_chunk(monkeypatch, images, 16, 16, k, 16, dtype)
        else:
            _images_per_chunk(monkeypatch, images, 16, k, 16 // stride, dtype)
        return conv2d(Tensor(x), Tensor(w), stride=stride).data

    got = run(images)
    assert got.dtype == dtype and got.flags.c_contiguous
    want = _rows_first_conv_forward(x, w, stride)
    if (k, stride) == (3, 1):
        # per-tap sums: the same for any chunking, in another summation order than the oracle
        assert np.array_equal(got, run(1))
        bound = _CONV_PRECISION[16, 16, 32][0]
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("ci, co, extent, k, stride, taps", [
    (16, 16, 32, 3, 1, True),    # a x1 stage-1 block convolution
    (128, 128, 8, 3, 1, True),   # the most output maps that take the taps
    (16, 8, 32, 3, 1, True),     # fewer output maps than input maps
    (16, 16, 16, 3, 1, True),    # the fewest multiply-adds per tap that take them
    (16, 16, 33, 2, 1, True),    # an even kernel: one row and one column fewer out
    (3, 16, 32, 3, 1, False),    # the stem
    (256, 256, 8, 3, 1, False),  # the x4 model's stage 3
    (4, 4, 32, 3, 1, False),     # the gradient check's micro model
    (16, 16, 15, 3, 1, False),   # too few multiply-adds per tap
    (16, 32, 32, 3, 2, False),   # a stage transition
    (16, 16, 32, 1, 1, False),   # 1x1
])
def test_conv_values_takes_the_per_tap_path_by_shape(monkeypatch, ci, co, extent, k, stride,
                                                     taps):
    calls = []
    tap_sums = layers._tap_sums
    monkeypatch.setattr(layers, "_tap_sums", lambda *args: calls.append(args) or tap_sums(*args))
    x = np.ones((1, ci, extent, extent), dtype=np.float32)
    w = np.ones((co, ci, k, k), dtype=np.float32)
    want = _rows_first_conv_forward(x, w, stride)
    assert np.array_equal(layers.conv_values(x, w, stride), want)  # small integers: exact
    assert bool(calls) == taps


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci, extent", [(16, 32), (64, 8)], ids=["stage1", "stage3"])
def test_per_tap_conv_of_an_image_is_independent_of_its_batch(ci, extent, dtype):
    # an image's output is the same bit for bit alone, at any position of a batch of 7
    # and in a batch of 100, whatever chunk it falls in
    rng = np.random.default_rng(28)
    x = rng.standard_normal((100, ci, extent, extent)).astype(dtype)
    w = rng.standard_normal((ci, ci, 3, 3)).astype(dtype)
    whole = layers.conv_values(x, w, 1)
    for picks in ([0, 99, 50, 1, 98, 3, 4], [97, 5, 96, 6, 95, 7, 94]):
        assert np.array_equal(layers.conv_values(x[picks], w, 1), whole[picks])
    for i in (0, 37, 99):
        assert np.array_equal(layers.conv_values(x[i:i + 1], w, 1), whole[i:i + 1])


@pytest.mark.parametrize("budget", [1, None], ids=["one-per-chunk", "default-chunks"])
def test_per_tap_conv_values_of_a_stack_equal_each_slice(monkeypatch, budget):
    # images stacked (K, b, ...) and kernels stacked (K, co, ...) on the per-tap path
    rng = np.random.default_rng(29)
    xs = rng.standard_normal((3, 5, 16, 16, 16))
    ws = rng.standard_normal((3, 16, 16, 3, 3))
    if budget:
        monkeypatch.setattr(layers, "_COLUMN_BYTES", budget)
    for stacked, x in zip(layers.conv_values(xs, ws[0], 1), xs):
        assert np.array_equal(stacked, conv2d(Tensor(x), Tensor(ws[0])).data)
    for stacked, w in zip(layers.conv_values(xs[0], ws, 1), ws):
        assert np.array_equal(stacked, conv2d(Tensor(xs[0]), Tensor(w)).data)


@pytest.mark.parametrize("images", [2, None], ids=["straddling-chunks", "default-chunks"])
def test_conv_values_of_stacked_images_equal_each_slice(monkeypatch, images):
    rng = np.random.default_rng(16)
    xs = rng.standard_normal((3, 3, 8, 12, 12))  # (K, b, ci, h, w)
    w = rng.standard_normal((16, 8, 3, 3))
    if images:
        _images_per_chunk(monkeypatch, images, 8, 3, 6, xs.dtype)
    got = layers.conv_values(xs, w, 2)
    assert got.shape == (3, 3, 16, 6, 6)
    for stacked, x in zip(got, xs):
        assert np.array_equal(stacked, conv2d(Tensor(x), Tensor(w), stride=2).data)


@pytest.mark.parametrize("images", [2, None], ids=["partial-last", "default-chunks"])
def test_conv_values_of_a_kernel_stack_equal_each_kernel(monkeypatch, images):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((5, 8, 12, 12))
    ws = rng.standard_normal((4, 16, 8, 3, 3))  # (K, co, ci, k, k)
    if images:
        _images_per_chunk(monkeypatch, images, 8, 3, 12, x.dtype)
    got = layers.conv_values(x, ws, 1)
    assert got.shape == (4, 5, 16, 12, 12)
    for stacked, w in zip(got, ws):
        assert np.array_equal(stacked, conv2d(Tensor(x), Tensor(w)).data)


def test_conv_values_refuses_a_stack_on_both_sides():
    xs = np.zeros((2, 1, 4, 6, 6))
    ws = np.zeros((2, 4, 4, 3, 3))
    with pytest.raises(DimensionError, match="both stacked"):
        layers.conv_values(xs, ws, 1)


def test_conv_values_in_concurrent_threads_match_one_thread():
    # each thread keeps its own padded and column buffers
    rng = np.random.default_rng(24)
    cases = [(rng.standard_normal((6, ci, e, e)), rng.standard_normal((8, ci, 3, 3)))
             for ci, e in ((4, 24), (8, 20), (12, 16), (16, 12))]
    want = [layers.conv_values(x, w, 1) for x, w in cases]
    wrong = []

    def work(case):
        x, w = cases[case]
        for _ in range(40):
            if not np.array_equal(layers.conv_values(x, w, 1), want[case]):
                wrong.append(case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def test_conv_forward_memory_stays_near_its_output():
    # a whole-batch column matrix here would be 56.25 MiB, nine times the input
    rng = np.random.default_rng(18)
    x = rng.standard_normal((100, 16, 32, 32)).astype(np.float32)
    w = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
    tracemalloc.start()
    try:
        out = layers.conv_values(x, w, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes + layers._COLUMN_BYTES


def _einsum_conv_backward(x, weight, g, stride):
    """The per-tap einsum backward the GEMM form replaced, kept as an oracle."""
    k = weight.shape[2]
    pad = (k - 1) // 2
    ho, wo = g.shape[2:]
    h, w = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gw = np.empty_like(weight)
    gxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            taps = (slice(None), slice(None),
                    slice(i, i + ho * stride, stride), slice(j, j + wo * stride, stride))
            gw[:, :, i, j] = np.einsum("bohw,bchw->oc", g, xp[taps])
            gxp[taps] += np.einsum("bohw,oc->bchw", g, weight[:, :, i, j])
    return gxp[:, :, pad:pad + h, pad:pad + w], gw


def _rows_major_weight_gradient(x, g, k, stride):
    """The weight gradient as one g @ cols^T over the whole batch's columns, kept as an oracle."""
    b, ci = x.shape[:2]
    co, ho, wo = g.shape[1:]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(b, ci, k, k, ho, wo),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride))
    cols = windows.transpose(1, 2, 3, 0, 4, 5).reshape(ci * k * k, b * ho * wo)
    gflat = g.transpose(1, 0, 2, 3).reshape(co, b * ho * wo)
    return (gflat @ cols.T).reshape(co, ci, k, k)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, ci, co, extent, k, stride", [
    (8, 3, 16, 32, 3, 1),    # stem
    (8, 16, 16, 32, 3, 1),   # stage 1
    (8, 16, 32, 32, 3, 2),   # stage-2 transition
    (8, 32, 64, 16, 3, 2),   # stage-3 transition
    (8, 64, 64, 8, 3, 1),    # stage 3
    (8, 16, 32, 32, 1, 2),   # 1x1 projection shortcut
    (2, 2, 3, 5, 3, 2),      # odd extent: 5 -> 3
])
def test_conv_weight_gradient_matches_the_rows_major_oracle(b, ci, co, extent, k, stride,
                                                            dtype):
    # an input that needs no gradient gives the weight gradient from x's columns,
    # image by image: another summation order, so the bound is normwise
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((b, ci, extent, extent)).astype(dtype))
    w = Tensor(rng.standard_normal((co, ci, k, k)).astype(dtype), requires_grad=True)
    out_extent = (extent - 1) // stride + 1
    g = rng.standard_normal((b, co, out_extent, out_extent)).astype(dtype)
    with Tape() as tape:
        tape.backward(sum_all(conv2d(x, w, stride=stride) * Tensor(g)))
    want = _rows_major_weight_gradient(x.data, g, k, stride)
    assert w.grad.dtype == dtype and w.grad.shape == want.shape
    bound = 1e-6 if dtype == np.float32 else 1e-13
    assert np.linalg.norm(w.grad - want) <= bound * np.linalg.norm(want)


@pytest.mark.parametrize("ci, co, stride", [(16, 16, 1), (16, 32, 2)])
def test_conv_backward_matches_the_einsum_oracle(ci, co, stride):
    # float32 at a stage-1 shape and at a stage-transition shape
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((4, ci, 32, 32)).astype(np.float32), requires_grad=True)
    w = he_conv_weight(rng, co, ci, 3)
    out_extent = 32 // stride
    weights = rng.standard_normal((4, co, out_extent, out_extent)).astype(np.float32)
    with Tape() as tape:
        tape.backward(sum_all(conv2d(x, w, stride=stride) * Tensor(weights)))
    gx, gw = _einsum_conv_backward(x.data, w.data, weights, stride)
    for got, want in ((x.grad, gx), (w.grad, gw)):
        assert got.dtype == np.float32
        assert np.abs(got - want).max() / np.abs(want).max() <= 1e-5


@pytest.mark.parametrize("x_shape, w_shape", [((2, 4, 9, 9), (4, 4, 2, 2)),
                                              ((2, 3, 8, 8), (5, 3, 4, 4))])
def test_even_kernel_conv_backward_matches_the_einsum_oracle(x_shape, w_shape):
    # an even kernel gives one row and one column fewer out than in, so the input
    # gradient cannot be the flipped kernel's forward of g; float64
    rng = np.random.default_rng(29)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal(w_shape), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        out = conv2d(x, w)
        weights = rng.standard_normal(out.shape)
        tape.backward(sum_all(out * Tensor(weights, dtype=np.float64)))
    gx, gw = _einsum_conv_backward(x.data, w.data, weights, 1)
    for got, want in ((x.grad, gx), (w.grad, gw)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() / np.abs(want).max() <= 1e-13


def _per_tap_input_gradient(x_shape, weight, g, stride):
    """The per-tap col2im input gradient the stride-1 flipped kernel replaced, kept as an oracle."""
    b, ci, h, w = x_shape
    co, _, k, _ = weight.shape
    pad = (k - 1) // 2
    ho, wo = g.shape[2:]
    gxp = np.zeros((b, ci, h + 2 * pad, w + 2 * pad), dtype=g.dtype)
    gmaps = g.reshape(b, co, ho * wo)
    for i in range(k):
        for j in range(k):
            spread = np.matmul(weight[:, :, i, j].T, gmaps)
            gxp[:, :, i:i + ho * stride:stride, j:j + wo * stride:stride] += (
                spread.reshape(b, ci, ho, wo))
    return gxp[:, :, pad:pad + h, pad:pad + w]


def _conv_input_gradient(x, w, g, stride):
    x = Tensor(x, requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(conv2d(x, Tensor(w), stride=stride) * Tensor(g)))
    return x.grad


def _conv_operands(rng, b, ci, co, extent, k, stride, dtype):
    out_extent = (extent - 1) // stride + 1
    return (rng.standard_normal((b, ci, extent, extent)).astype(dtype),
            rng.standard_normal((co, ci, k, k)).astype(dtype),
            rng.standard_normal((b, co, out_extent, out_extent)).astype(dtype))


@pytest.mark.parametrize("dtype, bound", [(np.float32, 1e-6), (np.float64, 1e-13)])
@pytest.mark.parametrize("b, ci, co, extent, k", [
    (4, 3, 16, 32, 3),    # stem
    (4, 16, 16, 32, 3),   # stage 1
    (4, 32, 32, 16, 3),   # stage 2
    (4, 64, 64, 8, 3),    # stage 3
    (4, 16, 32, 16, 3),   # ci != co, as at a stage transition
    (4, 8, 8, 32, 3),     # criterion 8's 8 maps
    (2, 2, 3, 5, 3),      # odd extent: 5 -> 5
    (1, 16, 16, 8, 3),    # batch 1
    (4, 16, 32, 16, 1),   # 1x1 kernel
])
def test_stride1_input_gradient_matches_the_per_tap_oracle(b, ci, co, extent, k, dtype,
                                                           bound):
    # the flipped-kernel convolution sums the taps in another order, so the
    # bound is normwise
    x, w, g = _conv_operands(np.random.default_rng(20), b, ci, co, extent, k, 1, dtype)
    got = _conv_input_gradient(x, w, g, 1)
    want = _per_tap_input_gradient(x.shape, w, g, 1)
    assert got.dtype == dtype and got.shape == want.shape
    assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, ci, co, extent, k", [
    (4, 16, 32, 32, 3),   # stage-2 transition
    (4, 32, 64, 16, 3),   # stage-3 transition
    (4, 16, 32, 32, 1),   # 1x1 projection shortcut
    (2, 2, 3, 5, 3),      # odd extent: 5 -> 3
])
def test_stride2_input_gradient_equals_the_per_tap_oracle(b, ci, co, extent, k, dtype):
    x, w, g = _conv_operands(np.random.default_rng(21), b, ci, co, extent, k, 2, dtype)
    got = _conv_input_gradient(x, w, g, 2)
    assert got.dtype == dtype
    assert np.array_equal(got, _per_tap_input_gradient(x.shape, w, g, 2))


@pytest.mark.parametrize("k", [3, 1])
def test_conv_input_gradient_of_a_sliced_g_matches_its_copy(k):
    # pad_maps' backward hands the conv its gradient as the view g[:, :have]
    rng = np.random.default_rng(22)
    x, w, g = _conv_operands(rng, 4, 16, 16, 16, k, 1, np.float32)
    wide = rng.standard_normal((4, 32, 16, 16)).astype(np.float32)
    wide[:, :16] = g
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(pad_maps(conv2d(xt, Tensor(w)), 32) * Tensor(wide)))
    assert np.array_equal(xt.grad, _conv_input_gradient(x, w, g, 1))


@pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (1, 2)])
def test_conv_of_an_empty_batch(k, stride):
    x = Tensor(np.zeros((0, 4, 6, 6), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((8, 4, k, k), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        out = conv2d(x, w, stride=stride)
        tape.backward(sum_all(out))
    extent = 6 // stride
    assert out.shape == (0, 8, extent, extent)
    assert x.grad.shape == (0, 4, 6, 6)
    assert w.grad.shape == w.shape and not w.grad.any()


def _flipped_input_gradient(w, g):
    # the column forward of g with the flipped kernel, which the stride-1 backward
    # takes whatever the map counts
    b, co, h, wd = g.shape
    out = np.empty((b, w.shape[1], h * wd), dtype=g.dtype)
    layers._column_values(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, h, wd, out)
    return out.reshape(b, -1, h, wd)


def _conv_gradients(x, w, g, stride=1, x_grad=True):
    xt, wt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(conv2d(xt, wt, stride=stride) * Tensor(g)))
    return xt.grad, wt.grad


@pytest.mark.parametrize("dtype, bound", [(np.float32, 1e-6), (np.float64, 1e-13)])
@pytest.mark.parametrize("b, ci, co, extent, k, images", [
    (4, 3, 16, 32, 3, None),    # stem
    (4, 16, 16, 32, 3, None),   # stage 1
    (4, 32, 32, 16, 3, None),   # stage 2
    (4, 64, 64, 8, 3, None),    # stage 3
    (4, 16, 32, 16, 3, None),   # ci != co
    (2, 2, 3, 5, 3, None),      # odd extent: 5 -> 5
    (1, 16, 16, 8, 3, None),    # batch 1
    (4, 16, 32, 16, 1, None),   # 1x1 kernel
    (7, 16, 16, 16, 3, 3),      # chunks of 3, 3 and 1 images
])
def test_streamed_weight_gradient_matches_the_rows_major_oracle(monkeypatch, b, ci, co,
                                                                extent, k, images, dtype,
                                                                bound):
    # an input that needs a gradient takes the weight gradient from g's
    # columns, image by image: another summation order, so the bound is normwise
    x, w, g = _conv_operands(np.random.default_rng(25), b, ci, co, extent, k, 1, dtype)
    if images:
        _images_per_chunk(monkeypatch, images, co, k, extent, dtype)
    gx, gw = _conv_gradients(x, w, g)
    want = _rows_major_weight_gradient(x, g, k, 1)
    assert gw.dtype == dtype and gw.shape == want.shape
    assert np.linalg.norm(gw - want) <= bound * np.linalg.norm(want)
    assert gx.dtype == dtype
    assert np.array_equal(gx, _flipped_input_gradient(w, g))


def test_streamed_conv_backward_in_concurrent_threads_matches_one_thread():
    # each thread keeps its own padded, column and product buffers, and its own tape
    rng = np.random.default_rng(26)
    cases = [_conv_operands(rng, 4, 16, 16, e, 3, 1, np.float64) for e in (32, 24, 16, 12)]
    want = [_conv_gradients(x, w, g) for x, w, g in cases]
    wrong, done = [], []

    def work(case):
        x, w, g = cases[case]
        for _ in range(20):
            got = _conv_gradients(x, w, g)
            if not all(np.array_equal(a, b) for a, b in zip(got, want[case])):
                wrong.append(case)
        done.append(case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(len(cases))) and not wrong


def test_streamed_conv_backward_memory_stays_near_its_input():
    # the whole-batch weight-gradient columns of x here would be 28.1 MiB
    x, w, g = _conv_operands(np.random.default_rng(27), 50, 16, 16, 32, 3, 1, np.float32)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(conv2d(xt, wt) * Tensor(g))
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert xt.grad.shape == x.shape and wt.grad.shape == w.shape
    assert peak < 3 * x.nbytes + 2 * layers._COLUMN_BYTES


@pytest.mark.parametrize("x_grad", [False, True], ids=["weight-only", "both"])
@pytest.mark.parametrize("ci, co, extent", [(16, 32, 32), (32, 64, 16)],
                         ids=["stage2-transition", "stage3-transition"])
def test_strided_conv_backward_memory_stays_near_its_input(ci, co, extent, x_grad):
    # the whole-batch weight-gradient columns of x here would be 7.0 and 3.5 MiB,
    # besides a padded copy of x
    x, w, g = _conv_operands(np.random.default_rng(30), 50, ci, co, extent, 3, 2, np.float32)
    xt, wt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(conv2d(xt, wt, stride=2) * Tensor(g))
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert wt.grad.shape == w.shape and (xt.grad is not None) == x_grad
    assert peak < 3 * x.nbytes + 2 * layers._COLUMN_BYTES


@pytest.mark.parametrize("ci, co, extent, k, stride, x_grad, bounds", [
    *((*shape, 3, 1, True, _CONV_PRECISION[shape]) for shape in _CONV_PRECISION),
    # about three times the readings at seeds 0-4; the weight gradient as one GEMM over
    # the whole batch's columns of x read at most 3.7e-7, 2.8e-7, 3.8e-7 and 4.3e-7,
    # streamed image by image 2.9e-7, 1.5e-7, 1.1e-7 and 1.7e-7
    (16, 32, 32, 3, 2, True, (6.5e-7, 3.5e-7, 1.1e-6)),  # stage-2 transition
    (32, 64, 16, 3, 2, True, (9e-7, 4.5e-7, 8.5e-7)),    # stage-3 transition
    (16, 32, 32, 1, 2, True, (2.5e-7, 3.2e-7, 1.1e-6)),  # 1x1 projection shortcut
    (3, 16, 32, 3, 1, False, (3e-7, None, 1.3e-6)),      # stem, as the model runs it
], ids=["stem", "stage1", "stage2", "stage3", "stage2-transition", "stage3-transition",
        "projection", "stem-weight-only"])
def test_float32_conv_stays_near_float64(ci, co, extent, k, stride, x_grad, bounds):
    """Float32 against float64 on the same float32 values, for the forward and the
    gradients of each convolution shape of the x1 models, batch 8."""
    x, w, g = (a.astype(np.float64) for a in _conv_operands(
        np.random.default_rng(0), 8, ci, co, extent, k, stride, np.float32))

    def run(dtype):
        out = layers.conv_values(x.astype(dtype), w.astype(dtype), stride)
        return (out,) + _conv_gradients(x.astype(dtype), w.astype(dtype), g.astype(dtype),
                                        stride, x_grad)

    got, want = run(np.float32), run(np.float64)
    for name, a, b, bound in zip(("out", "x", "weight"), got, want, bounds):
        if bound is None:
            assert a is None and b is None
            continue
        assert a.dtype == np.float32
        err = np.linalg.norm(a.astype(np.float64) - b) / np.linalg.norm(b)
        assert err <= bound, (name, err)


def test_batch_norm_standardizes_per_map_in_training():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((8, 3, 4, 4)) * 3.0 + 5.0, dtype=np.float64)
    bn = BatchNorm(3, dtype=np.float64)
    out = bn.forward(x, training=True)
    got = out.data.transpose(1, 0, 2, 3).reshape(3, -1)
    assert np.allclose(got.mean(axis=1), 0.0, atol=1e-10)
    assert np.allclose(got.var(axis=1), 1.0, atol=1e-3)  # eps shrinks it slightly


def test_batch_norm_constant_input_maps_to_shift():
    x = Tensor(np.full((4, 2, 3, 3), 7.0), dtype=np.float64)
    bn = BatchNorm(2, dtype=np.float64)
    out = bn.forward(x, training=True)
    assert np.allclose(out.data, 0.0, atol=1e-6)  # scale 1, shift 0


def test_batch_norm_requires_a_real_batch_in_training():
    bn = BatchNorm(2)
    with pytest.raises(ContractError):
        bn.forward(Tensor(np.ones((1, 2, 3, 3))), training=True)


def test_batch_norm_running_stats_update_rule():
    x = Tensor(np.full((4, 1, 2, 2), 3.0), dtype=np.float64)
    bn = BatchNorm(1, dtype=np.float64)
    bn.forward(x, training=True)
    # new = 0.9 * old + 0.1 * batch_stat, biased variance
    assert bn.running_mean[0] == pytest.approx(0.3, rel=1e-12)
    assert bn.running_var[0] == pytest.approx(0.9, rel=1e-12)


def test_batch_norm_eval_uses_running_stats():
    bn = BatchNorm(1, dtype=np.float64)
    bn.running_mean[0] = 2.0
    bn.running_var[0] = 4.0
    x = Tensor(np.full((2, 1, 1, 1), 6.0), dtype=np.float64)
    out = bn.forward(x, training=False)
    # (6 - 2) / sqrt(4 + 1e-5) scaled by 1, shifted by 0
    assert out.data[0, 0, 0, 0] == pytest.approx(4.0 / np.sqrt(4.0 + 1e-5), rel=1e-12)


def test_batch_norm_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    x = t64(rng.standard_normal((4, 2, 3, 3)))
    bn = BatchNorm(2, dtype=np.float64)
    bn.scale.data[:] = 1.0 + 0.1 * rng.standard_normal(2)
    bn.shift.data[:] = 0.1 * rng.standard_normal(2)
    weights = rng.standard_normal((4, 2, 3, 3))

    def loss_fn(training):
        rm = bn.running_mean.copy()
        rv = bn.running_var.copy()
        out = bn.forward(x, training=training)
        bn.running_mean[...] = rm  # keep the stats fixed across FD probes
        bn.running_var[...] = rv
        return sum_all(out * Tensor(weights))

    for training in (True, False):
        entry = check_tensors("batch_norm", lambda: loss_fn(training), [x, bn.scale, bn.shift])
        assert entry.max_rel_err < 1e-6


def test_eval_backward_ignores_a_later_update_of_the_running_statistics():
    # at float64 the eval-mode mean is the running estimate's dtype; a training
    # forward under the same tape updates that estimate in place before the
    # eval output's backward runs
    rng = np.random.default_rng(12)
    x = t64(rng.standard_normal((4, 3, 5, 5)))
    other = Tensor(3.0 + rng.standard_normal((4, 3, 5, 5)), dtype=np.float64)
    weights = Tensor(rng.standard_normal((4, 3, 5, 5)), dtype=np.float64)

    def grads(update):
        bn = BatchNorm(3, dtype=np.float64)
        bn.running_mean[:] = [0.5, -1.0, 2.0]
        bn.running_var[:] = [1.5, 0.7, 3.0]
        bn.scale.data[:] = [1.2, 0.8, -0.5]
        x.zero_grad()
        with Tape() as tape:
            loss = sum_all(bn.forward(x, training=False) * weights)
            if update:
                bn.forward(other, training=True)
            tape.backward(loss)
        return x.grad, bn.scale.grad, bn.shift.grad

    for got, want in zip(grads(update=True), grads(update=False)):
        assert np.array_equal(got, want)


def _norm_in(dtype, arrays, training, stats):
    """One batch norm with a shortcut add and no ReLU, in ``dtype``, and its backward:
    (output, x's, scale's, shift's and the shortcut's gradients)."""
    x, scale, shift, shortcut, weights = (Tensor(a.astype(dtype), requires_grad=True)
                                          for a in arrays)
    weights.requires_grad = False
    with Tape() as tape:
        out = batch_norm(x, scale, shift, stats[0].copy(), stats[1].copy(), training,
                         add=shortcut)
        tape.backward(sum_all(mul(out, weights)))
    return [out.data, x.grad, scale.grad, shift.grad, shortcut.grad]


# normwise float32 error bounds of (output, x, scale, shift, shortcut gradient), by mode
# and by the ratio of the maps' mean to their std: about three times the larger reading
# of the two-pass norm and of the form before it. Training read at most 6.4e-8, 5.5e-8,
# 2.9e-7 and 4.4e-7 at 1x; 2.3e-6, 5.7e-8, 1.5e-6 and 4.4e-7 at 100x; 2.9e-5, 5.7e-7,
# 2.3e-5 and 4.4e-7 at 1000x. Eval read 5.8e-8, 4.8e-8, 2.7e-7 and 4.4e-7 at 1x; 4.1e-7,
# 4.8e-8, 5.6e-7 and 4.4e-7 at 100x; 1.2e-5, 4.8e-8, 9.1e-6 and 4.4e-7 at 1000x. The
# shortcut's gradient is the loss weighting itself, exactly. Cancelling forms fail: the
# uncentered sum(g * x) - mean * sum(g) reads 3.3e-5 (train) and 3.1e-5 (eval) for the
# scale at 100x, and the folded eval norm x * a + (shift - mean * a) 1.8e-6 for the
# output at 100x.
_NORM_PRECISION = {
    (True, 1): (2e-7, 2e-7, 1e-6, 1.5e-6, 0.0),
    (True, 100): (7e-6, 2e-7, 5e-6, 1.5e-6, 0.0),
    (True, 1000): (9e-5, 2e-6, 7e-5, 1.5e-6, 0.0),
    (False, 1): (2e-7, 1.5e-7, 1e-6, 1.5e-6, 0.0),
    (False, 100): (1.3e-6, 1.5e-7, 2e-6, 1.5e-6, 0.0),
    (False, 1000): (3.6e-5, 1.5e-7, 3e-5, 1.5e-6, 0.0),
}


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("ratio", [1, 100, 1000])
def test_float32_batch_norm_stays_near_float64_for_maps_far_from_zero(training, ratio):
    """Float32 against float64 on the same float32 values, for maps whose mean is
    ``ratio`` times their std: a statistic or gradient sum that cancels the mean
    (x * a + (shift - mean * a), or sum(g * x) - mean * sum(g)) loses digits in
    proportion to the ratio. No ReLU, so there is no kink to flip."""
    rng = np.random.default_rng(0)
    shape = (16, 3, 16, 16)
    std = np.array([0.5, 2.0, 1.0])
    mean = ratio * std * np.array([1.0, -1.0, 1.0])
    x = rng.standard_normal(shape) * std[:, None, None] + mean[:, None, None]
    arrays = [x, 1 + 0.2 * rng.standard_normal(3), 0.2 * rng.standard_normal(3),
              rng.standard_normal(shape), rng.standard_normal(shape)]
    arrays = [a.astype(np.float32).astype(np.float64) for a in arrays]
    # the eval norm's running estimates: the batch's own, held in float64 as BatchNorm holds them
    stats = arrays[0].mean(axis=(0, 2, 3)), arrays[0].var(axis=(0, 2, 3))
    got = _norm_in(np.float32, arrays, training, stats)
    want = _norm_in(np.float64, arrays, training, stats)
    names = ("out", "x", "scale", "shift", "shortcut")
    for name, g, w, bound in zip(names, got, want, _NORM_PRECISION[training, ratio]):
        assert g.dtype == np.float32
        err = np.linalg.norm(g.astype(np.float64) - w) / np.linalg.norm(w)
        assert err <= bound, (name, err)


def _norm_add_relu(fused, training, dtype, shortcut, relu, nan=False):
    """One batch norm, with a shortcut add and a ReLU after it, and its backward.

    ``fused`` runs them as one op; otherwise as ``batch_norm``, ``add`` and
    ``relu``. Returns every array the two forms must agree on bit for bit.
    """
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((4, 3, 5, 5)).astype(dtype), requires_grad=True)
    a = Tensor(rng.standard_normal((4, 3, 5, 5)).astype(dtype), requires_grad=True)
    if nan:
        a.data[1, 2, 3, 4] = np.nan
    bn = BatchNorm(3, dtype=dtype)
    bn.scale.data[:] = [1.2, -0.7, 0.9]
    bn.shift.data[:] = [0.1, 0.3, -0.2]
    bn.running_mean[:] = [0.5, -1.0, 2.0]
    bn.running_var[:] = [1.5, 0.7, 3.0]
    weights = Tensor(rng.standard_normal((4, 3, 5, 5)).astype(dtype))
    with count_ops() as ops, Tape() as tape:
        if fused:
            out = bn.forward(x, training, a if shortcut else None, relu)
        else:
            out = bn.forward(x, training)
            out = add(out, a) if shortcut else out
            out = tensor_relu(out) if relu else out
        tape.backward(sum_all(mul(out, weights)))
    grads = [t.grad for t in (x, bn.scale, bn.shift) + ((a,) if shortcut else ())]
    assert all(g is not None for g in grads)
    return [out.data, *grads, bn.running_mean, bn.running_var], ops.as_dict()


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shortcut", [True, False], ids=["add", "no-add"])
@pytest.mark.parametrize("relu", [True, False], ids=["relu", "no-relu"])
def test_fused_norm_add_relu_equals_the_three_ops_bit_for_bit(training, dtype, shortcut, relu):
    got, got_ops = _norm_add_relu(True, training, dtype, shortcut, relu)
    want, want_ops = _norm_add_relu(False, training, dtype, shortcut, relu)
    assert got_ops == want_ops
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_fused_relu_mask_from_the_output_matches_the_input_mask_at_a_nan():
    # max(NaN, 0) is NaN, and NaN > 0 is false on both sides of the ReLU
    got, _ = _norm_add_relu(True, False, np.float64, True, True, nan=True)
    want, _ = _norm_add_relu(False, False, np.float64, True, True, nan=True)
    assert np.isnan(got[0][1, 2, 3, 4])
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_fused_norm_refuses_a_shortcut_of_another_shape():
    bn = BatchNorm(2)
    x = Tensor(np.ones((2, 2, 4, 4)))
    for shape in [(2, 2, 4, 2), (2, 4, 4, 4), (2, 2, 16)]:
        with pytest.raises(DimensionError):
            bn.forward(x, training=True, add=Tensor(np.ones(shape)))


def test_meanpool_halves_extent_and_averages():
    x = t64(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    with Tape() as tape:
        out = meanpool2x2(x)
        tape.backward(sum_all(out))
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 2.5
    assert np.array_equal(x.grad[0, 0], np.full((2, 2), 0.25))


def test_meanpool_blocks_are_disjoint():
    x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    out = meanpool2x2(x).data[0, 0]
    assert np.array_equal(out, [[2.5, 4.5], [10.5, 12.5]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, maps, extent", [(100, 16, 32), (7, 32, 16), (1, 64, 8), (3, 5, 6)])
def test_meanpool_matches_the_reshape_mean_oracle(dtype, b, maps, extent):
    for seed in range(3):
        x = np.random.default_rng(seed).standard_normal((b, maps, extent, extent)).astype(dtype)
        want = x.reshape(b, maps, extent // 2, 2, extent // 2, 2).mean(axis=(3, 5))
        got = meanpool2x2(x).data
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def test_global_avg_pool_constant_and_gradient():
    x = t64(np.full((2, 3, 4, 4), 0.0))
    x.data[0, 1] = 5.0
    with Tape() as tape:
        out = global_avg_pool(x)
        tape.backward(sum_all(out))
    assert out.shape == (2, 3)
    assert out.data[0, 1] == 5.0
    assert np.allclose(x.grad, 1.0 / 16.0)


def test_dense_identity_passthrough_and_bias():
    w = Tensor(np.eye(3), dtype=np.float64)
    b = Tensor(np.array([1.0, 2.0, 3.0]), dtype=np.float64)
    layer = Dense(w, b)
    x = Tensor(np.array([[1.0, 1.0, 1.0]]), dtype=np.float64)
    out = layer.forward(x)
    assert np.array_equal(out.data, [[2.0, 3.0, 4.0]])


def test_he_init_statistics():
    rng = np.random.default_rng(0)
    w = he_conv_weight(rng, 64, 64, 3)
    assert w.data.shape == (64, 64, 3, 3)
    assert w.data.std() == pytest.approx(np.sqrt(2.0 / (9 * 64)), rel=0.05)
    assert abs(w.data.mean()) < 0.005

    d = he_dense_weight(rng, 400, 50)
    assert d.data.shape == (400, 50)
    assert d.data.std() == pytest.approx(np.sqrt(2.0 / 400), rel=0.05)
