"""Convolution, batch normalization, pooling, and dense layers.

All spatial tensors are laid out b*maps*rows*cols. Convolutions are
cross-correlations (no kernel flip) with implicit zero padding of
(k - 1) // 2 on each border, so stride-1 output extent equals the input
extent and stride-2 halves it (ceiling division). Convolutions carry no
bias term; every convolution in the network is followed by a batch norm
whose shift plays that role.

A convolution's forward streams the batch in chunks of images. Each chunk
is copied into the interior of one zero-bordered padded buffer (a 1x1 kernel
has no border and takes the images as they stand), which is kept between
calls, and the chunk's output is written straight into its slice of the
b*co*(ho*wo) output. The path is chosen by shape alone:

- A stride-1 k x k convolution (k > 1) with at least as many input maps as
  output maps, at most ``_TAP_MAPS`` (128) of those, and per image at least
  ``_TAP_MIN_MACS`` (2**16) multiply-adds in each tap's GEMM builds no
  column matrix: in the paper's models, every stride-1 convolution inside a
  residual block of at most 128 maps, so not those of the x4 model's stage 3
  (256 maps) or of any stage of the x12 model (192 to 768). Each map lies
  flattened in the buffer with k - 1 zeros of tail slack, and the output is
  computed over the padded width wp as k*k GEMMs: W[..., i, j] (co x ci) times the buffer's view from offset
  i*wp + j, which BLAS reads as it stands. The products are added in (i, j)
  order into a kept buffer, whose 2 * pad junk columns per row are cropped
  into the output. The column matrix is k*k times the input, and at the
  stage-1 shape copying it cost 63 us per image against the GEMM's 74 us.
  Each output is a sum of k*k partial dot products of ci terms, not one of
  ci*k*k terms, so it differs from the column form in the last bits; its
  float32 error against float64 is about half the column form's.
- Every other convolution (the 3-map stem, the stride-2 first convolutions
  of stages 2 and 3, the 1x1 projections, those with more than 128 output
  maps and the small ones of the gradient check's micro model) is an im2col
  GEMM, W @ cols. Its columns are copied from a window view of the padded
  buffer (as_strided), laid out b*ci*k*k*ho*wo so every copied run is a
  whole output row, into one kept column buffer. Per-tap GEMMs, each with
  K = ci = 3, ran the stem at half speed; the two paths cross over near
  ci = co / 2 (8 -> 16 maps at 32x32 took the same time either way at
  batch 100).

A chunk holds as many images as their column matrices, or their padded
inputs, sums and products, fit in ``_COLUMN_BYTES``. Each image's
GEMMs have the shape and summation order of a whole-batch call, so an
image's output is the same bit for bit in any batch and at any place in it.

No convolution's backward builds a whole-batch column matrix either. Its
weight gradient is one streamed pass of ``_column_chunks``, one GEMM per
image added in image order into one kept product buffer; the images are
summed in another order than by one whole-batch GEMM, so the two differ in
the last bits. When a stride-1 odd-kernel convolution's input needs a
gradient, the columns are g's, and each chunk's columns meet two GEMMs while
they are in cache. W_flip @ cols is the input gradient: the forward of g
with the kernel flipped in both spatial axes and its co and ci axes swapped
(Dumoulin & Visin 2016, arXiv:1603.07285, section 4), bit for bit what the
column path (``_column_values``) returns for it. ``conv_values`` would take
the per-tap path for a flipped block kernel, which agrees only to rounding.
cols @ x^T, summed over the images, is the flipped kernel's gradient, which
read back flipped is the weight gradient. Every other convolution (the stem,
whose input needs no gradient, the stride-2 convolutions and the 1x1
projections) sums cols @ g^T over x's columns: against one GEMM over the
whole batch's columns (batch 50, float32, 1 BLAS thread), 2.1 ms not 3.0 at
the stem, 5.2 and 4.0 not 6.3 and 3.9 at the stage transitions, 0.8 not 1.5
at a projection, and 20-70% less float32 error. Any other input gradient
(a strided or an even kernel's) is one batched GEMM per kernel tap,
W[:, :, i, j]^T @ g, scatter-added into the slice of the padded input it
came from (col2im): at stride 2 the flipped kernel would convolve a
zero-dilated g, four times the work, 2.7x slower.

A backward closure keeps no array the tape already holds in another form:
the convolution backward rebuilds its columns from its input or from g,
and the batch-norm backward recomputes d = x - mean from the input and the
kept per-map mean with the forward's expression. Each activation is
therefore retained once, as some op's output, and the recomputation changes
no gradient.

A convolution can also take a batch norm and its ReLU on its input, as one
op (``conv2d``'s ``norm``), when no other op reads the norm's output: the
original block's bn1, and the preactivation block's bn1 and bn2. The op
keeps its input and the norm's per-map mean and inverse std, not the
normalized map, and its backward rebuilds that map bit for bit from them
(Chen et al. 2016, arXiv:1604.06174; Pleiss et al. 2017, arXiv:1707.06990).
A taped block so keeps three maps, not four (original) or five
(preactivation), for one more norm pass per fused norm in the backward.
The norm's checks, running-estimate update, count and backward arithmetic
are ``batch_norm``'s, through the helpers both ops call.

A batch norm makes few passes over its maps. The training forward takes the
mean (one sum), writes d = x - mean once into its output buffer, takes the
biased variance from d (one pass) and finishes in place: the per-map
``inv_std * scale``, the shift, the add and the ReLU. The backward
recomputes d once, takes each map's sum(g) and sum(g * d), and builds x's
gradient in place on d. Every statistic and gradient sum is centered, so
none cancels when a map's mean is far larger than its spread.

A batch norm can also add a shortcut and apply the ReLU after it, as one op
(In-Place Activated BatchNorm, Rota Bulo et al. 2018, arXiv:1712.02616): its
one output buffer takes every step in place, and its backward takes the
ReLU's mask from that output. The norm's own output and the sum before the
ReLU, which only the next op read, are never kept, so the trunk's every
norm-ReLU pair and the original block's tail (bn2, the shortcut add and the
ReLU) each keep one map on the tape, not two or three. Forward values, every
gradient and every count equal those of the three separate ops bit for bit.

Each op's forward arithmetic is a NumPy value function (``conv_values``,
``norm_values``, ``pool2x2_values``, ``global_pool_values``) that takes
leading axes (``conv_values`` on one operand only, images or kernels, not
both); the taped op checks shapes, charges its count, records its closure
and calls it. The trunk runs over an op table, ``Taped`` or ``Values``:
``conv`` (with its optional norm and ReLU on the input), ``norm`` (with its
optional add and ReLU), ``pad_maps`` and ``block``. ``Values`` takes
the value functions on a stand-in for any parameter, such as the gradient
check's stack of probes, each slice equal to the unstacked value bit for
bit.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, DimensionError
from .tensor import Tensor, _bump, _taped, _tensor, add, matmul, pad_maps, space_subsample

BN_MOMENTUM = 0.1  # weight of each batch's statistics in the running estimates
BN_EPS = 1e-5


def _he_normal(rng, shape, fan, dtype):
    # rng None: zeros at the shape, for a model whose values are loaded next
    if rng is None:
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
    w = rng.standard_normal(shape) * np.sqrt(2.0 / fan)
    return Tensor(w.astype(dtype), requires_grad=True)


def he_conv_weight(rng, out_maps, in_maps, k, dtype=np.float32):
    """Gaussian kernel scaled by sqrt(2 / (k*k*out_maps)); zeros if rng is None."""
    return _he_normal(rng, (out_maps, in_maps, k, k), k * k * out_maps, dtype)


def he_dense_weight(rng, fan_in, fan_out, dtype=np.float32):
    """Gaussian matrix scaled by sqrt(2 / fan_in); zeros if rng is None."""
    return _he_normal(rng, (fan_in, fan_out), fan_in, dtype)


# Bytes of column matrix that one streamed chunk builds (at least one image),
# or, on the per-tap path, of its padded inputs, sums and products. A
# batch-100 stage-1 convolution's whole-batch column matrix is 56 MiB, nine
# times its input, against a 2 MiB per-core L2, so forming it cost more than
# the GEMM. Swept over 0.5, 1, 2 and 4 MiB at every stage shape at batch 100
# (float32, 1 BLAS thread, 2-core x86_64 VM with 2 MiB L2 per core), 1 MiB was
# best or within noise of best at each. At 2 MiB a stage-1 chunk holds three
# images, whose columns (1.7 MiB), padded inputs and outputs overflow L2
# together, and the call slowed from 16.8 to 19.2 ms. The per-tap path, swept
# over 0.25-8 MiB of its own buffers at batch 50 and 100 on that machine, was
# also best at or near 1 MiB (4 stage-1 images, 9 at stage 2, 15 at stage 3).
# Sized by the columns it does not build, it would take 1, 3 and 7 images and
# pay the Python cost of nine GEMMs and eight adds per chunk more often: stage 1
# read 11.6 ms against 9.8 at batch 100 (5.0 against 4.2 at batch 50), and
# stages 2 and 3 were within noise.
_COLUMN_BYTES = 2**20

# The most output maps a per-tap convolution takes. What it saves, the column
# copy, shrinks against the GEMM as the output maps grow, and what it adds does
# not: (k - 1) / w more products, over the padded width, and k*k - 1 adds of
# its output. Column/per-tap time of a batch-50 call (float32, 1 BLAS thread,
# the 2-core VM above, 20 alternating pairs, best of 3 each) read 1.14 at 64
# maps of 32x32, 1.04-1.08 at 128 of 16x16 and 128 of 8x8, 0.99 at 192 of 8x8,
# 0.96 at 256 of 16x16 and 0.94-0.96 at 256 of 8x8 (the x4 model's stage 3).
_TAP_MAPS = 128

# The fewest multiply-adds (ci * co * ho * wo) one image's tap GEMM may make
# for a convolution to take the per-tap path, whose k*k GEMMs and k*k - 1 adds
# per chunk cost more calls than the column path's copy and GEMM. Per-tap over
# column time at batch 2 (float64, 1 BLAS thread): 1.4-1.5 at 2**14 (4 maps of
# 32x32, 8 of 16x16, 16 of 8x8: the gradient check's micro model, which made
# gradcheck-full 11% slower), 1.7-2.3 for its kernel stacks of 4-16, 1.1-1.2 at
# 2**16 and 0.8-1.0 at 2**18 (every x1 stage). At batch 50 2**16 read 0.8-1.0.
_TAP_MIN_MACS = 2**16

# The streamed passes' padded, column and product buffers, kept between calls
# by each thread (and grown to the largest chunk yet) rather than allocated
# per call. With per-call buffers the stride-1 input gradients of a training
# step made glibc give the heap top back to the kernel and fault it in again,
# step after step: acceptance criterion 8 read 1.3M minor faults and 2.7-2.9 s
# of system time (1 BLAS thread), against 0.28-0.59M and 0.8-1.5 s with kept
# buffers. Each pool thread of a sliced eval forward (``model.CrmnModel.forward``)
# so keeps its own set, sized to the chunks of its slice.
_scratch = threading.local()


def _scratch_array(name, shape, dtype):
    """This thread's kept buffer ``name`` as an uninitialized array of this shape and dtype."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    buf = getattr(_scratch, name, None)
    if buf is None or buf.nbytes < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_scratch, name, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def _window_view(xp, k, stride):
    """The window view of a padded xp (..., ci, hp, wp): (..., ci, k, k, ho, wo)."""
    ho = (xp.shape[-2] - k) // stride + 1
    wo = (xp.shape[-1] - k) // stride + 1
    *lead, s2, s3 = xp.strides
    return as_strided(xp, shape=xp.shape[:-2] + (k, k, ho, wo),
                      strides=(*lead, s2, s3, s2 * stride, s3 * stride))


def _column_chunks(images, k, stride, ho, wo):
    """Yield (s, cols) per chunk of images (n, ci, h, w): the columns of images[s:s + m].

    cols (m, ci*k*k, ho*wo) is a view of this thread's kept column buffer,
    which the next chunk overwrites.
    """
    n, ci, h, w = images.shape
    pad = (k - 1) // 2
    # at least one image, also for an empty batch
    chunk = max(1, min(n, _COLUMN_BYTES // (ci * k * k * ho * wo * images.itemsize)))
    if pad:
        xp = _scratch_array("padded", (chunk, ci, h + 2 * pad, w + 2 * pad), images.dtype)
        xp.fill(0)
    cols = _scratch_array("columns", (chunk, ci * k * k, ho * wo), images.dtype)
    for s in range(0, n, chunk):
        m = min(chunk, n - s)
        padded = images[s:s + m]  # as it stands when k = 1, which pads nothing
        if pad:
            xp[:m, :, pad:pad + h, pad:pad + w] = padded
            padded = xp[:m]
        np.copyto(cols[:m].reshape(m, ci, k, k, ho, wo), _window_view(padded, k, stride))
        yield s, cols[:m]


def _column_values(images, weight, stride, ho, wo, out):
    """Any convolution of images (n, ci, h, w) as one GEMM per chunk's columns, into
    out (..., n, co, ho*wo)."""
    co, ci, k, _ = weight.shape[-4:]
    wmat = weight.reshape(weight.shape[:-4] + (1, co, ci * k * k))
    for s, cols in _column_chunks(images, k, stride, ho, wo):
        np.matmul(wmat, cols, out=out[..., s:s + len(cols), :, :])


def _tap_sums(images, weight, ho, wo, out):
    """A stride-1 k x k convolution of images (n, ci, h, w) as k*k GEMMs per chunk,
    into out (..., n, co, ho*wo).

    Each chunk is copied into the interior of the kept zero-bordered padded
    buffer, each map flattened with k - 1 zeros of tail slack, so that tap
    (i, j) reads the ho*wp positions from i*wp + j on as one offset view, a
    BLAS operand with no copy. Over the padded width wp the output is the sum
    of W[..., i, j] @ view(i, j), the taps added in (i, j) order into a kept
    buffer; the wp - wo junk columns of each row are cropped on the way out.
    Chunks hold as many images as their padded inputs, sums and products
    fit in ``_COLUMN_BYTES``.
    """
    n, ci, h, w = images.shape
    co, _, k, _ = weight.shape[-4:]
    lead = weight.shape[:-4]
    pad = (k - 1) // 2
    wp = w + 2 * pad
    span = ho * wp
    flat = (h + 2 * pad) * wp + k - 1
    # (..., k, k, 1, co, ci): each tap's matrix contiguous, against a chunk's image axis
    taps = np.ascontiguousarray(np.moveaxis(weight, (-2, -1), (-4, -3)))[..., None, :, :]
    per_image = (ci * flat + 2 * int(np.prod(lead)) * co * span) * images.itemsize
    chunk = max(1, min(n, _COLUMN_BYTES // per_image))
    xp = _scratch_array("padded", (chunk, ci, flat), images.dtype)
    xp.fill(0)
    interior = xp[:, :, :flat - (k - 1)].reshape(chunk, ci, h + 2 * pad, wp)
    interior = interior[:, :, pad:pad + h, pad:pad + w]
    # the column buffer, which this path does not fill, holds the sums and the products
    sums, product = _scratch_array("columns", (2,) + lead + (chunk, co, span), out.dtype)
    grid = out.reshape(out.shape[:-1] + (ho, wo))
    for s in range(0, n, chunk):
        m = min(chunk, n - s)
        interior[:m] = images[s:s + m]
        acc, part = sums[..., :m, :, :], product[..., :m, :, :]
        for i in range(k):
            for j in range(k):
                view = xp[:m, :, i * wp + j:i * wp + j + span]
                if i == j == 0:
                    np.matmul(taps[..., i, j, :, :, :], view, out=acc)
                else:
                    acc += np.matmul(taps[..., i, j, :, :, :], view, out=part)
        grid[..., s:s + m, :, :, :] = acc.reshape(lead + (m, co, ho, wp))[..., :wo]


def conv_values(x, weight, stride):
    """The convolution in NumPy: x (..., b, ci, h, w) with weight (..., co, ci, k, k).

    Either side may carry leading axes, not both (``DimensionError``). The
    images of a stack (K, b, ci, h, w) are convolved as one image axis of K*b
    images; a kernel stack (K, co, ci, k, k) meets each chunk's columns, or
    each tap's view, as (K, 1, co, ...). Every GEMM slice has the unstacked
    shape and equals the unstacked product bit for bit.

    A stride-1 k x k convolution (k > 1) with at least as many input maps as
    output maps, at most ``_TAP_MAPS`` of those and at least
    ``_TAP_MIN_MACS`` multiply-adds in each tap's GEMM takes ``_tap_sums``;
    every other takes ``_column_values``.
    """
    if x.ndim > 4 and weight.ndim > 4:
        raise DimensionError(
            f"conv_values: images {x.shape} and kernels {weight.shape} are both stacked")
    co, ci, k, _ = weight.shape[-4:]
    h, w = x.shape[-2:]
    pad = (k - 1) // 2
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    images = x.reshape((-1,) + x.shape[-3:])
    out = np.empty(weight.shape[:-4] + (len(images), co, ho * wo),
                   dtype=np.result_type(x, weight))
    if (stride == 1 and k > 1 and co <= min(ci, _TAP_MAPS)
            and ci * co * ho * wo >= _TAP_MIN_MACS):
        _tap_sums(images, weight, ho, wo, out)
    else:
        _column_values(images, weight, stride, ho, wo, out)
    return out.reshape(weight.shape[:-4] + x.shape[:-3] + (co, ho, wo))


def _conv_backward(x, weight, stride, g, x_grad):
    """A convolution's input gradient (None unless x_grad) and weight gradient from
    g (b, co, ho, wo), the latter the sum of cols[n] @ other[n] over the images.

    At stride 1 with an odd kernel and x_grad, cols are g's, other is x^T and
    each chunk's cols also give the input gradient, flipped @ cols; otherwise
    cols are x's, other is g^T and the input gradient is ``_col2im``'s.
    """
    _, ci, k, _ = weight.shape
    b, co, ho, wo = g.shape  # ho, wo = h, w at stride 1 with an odd k
    dtype = np.result_type(g, weight)
    flipped = None
    if x_grad and stride == 1 and k % 2:
        flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(1, ci, co * k * k)
        gx = np.empty((b, ci, ho * wo), dtype=dtype)
        images, other = g, x.reshape(b, ci, ho * wo).transpose(0, 2, 1)
    else:
        images, other = x, g.reshape(b, co, ho * wo).transpose(0, 2, 1)
    gw = np.zeros((images.shape[1] * k * k, other.shape[2]), dtype=dtype)
    product = _scratch_array("product", gw.shape, dtype)
    for s, cols in _column_chunks(images, k, stride, ho, wo):
        if flipped is not None:
            np.matmul(flipped, cols, out=gx[s:s + len(cols)])
        # a batched product summed over its first axis needs a buffer as large
        # as cols (stage 3) and measured slower at all three stage shapes
        for n, image_cols in enumerate(cols, s):
            gw += np.matmul(image_cols, other[n], out=product)
    if flipped is not None:
        # gw[(o, i, j), c] is the gradient of weight[o, c, k - 1 - i, k - 1 - j]
        return gx.reshape(x.shape), gw.reshape(co, k, k, ci)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    gx = _col2im(x, weight, g, stride) if x_grad else None
    return gx, gw.reshape(ci, k, k, co).transpose(3, 0, 1, 2)


def _col2im(x, weight, g, stride):
    """A strided convolution's input gradient from g (b, co, ho, wo): per kernel tap one
    batched GEMM, W[:, :, i, j]^T @ g, scatter-added into the strided slice of the
    padded input it came from."""
    b, ci, h, w = x.shape
    co, _, k, _ = weight.shape
    ho, wo = g.shape[2:]
    pad = (k - 1) // 2
    gmaps = g.reshape(b, co, ho * wo)
    gxp = np.zeros((b, ci, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            spread = np.matmul(weight[:, :, i, j].T, gmaps)
            gxp[:, :, i:i + ho * stride:stride, j:j + wo * stride:stride] += (
                spread.reshape(b, ci, ho, wo))
    return gxp[:, :, pad:pad + h, pad:pad + w]


def conv2d(x, weight, stride=1, norm=None, training=False):
    """Cross-correlate ``x`` (b*ci*H*W) with ``weight`` (co*ci*k*k).

    With ``norm``, a ``BatchNorm`` on x's maps, the op cross-correlates
    relu(norm(x)) instead, in ``training`` or eval mode: it runs the norm's
    checks, running-estimate update and count as ``batch_norm`` does, and
    its closure keeps x, the weight, the scale, the shift and the per-map
    mean and inverse std, but not the normalized map. The backward takes
    d = x - mean once, rebuilds y = relu(d * (inv_std * scale) + shift) in
    the forward's order, so y is the same bit for bit, runs the convolution's
    backward on y, and passes its input gradient, masked by y > 0, through
    the norm's backward on d (Chen et al. 2016, arXiv:1604.06174).
    """
    x, weight = _tensor(x), _tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError(
            f"conv2d: expected rank-4 input and weight, got {x.shape} and {weight.shape}")
    b, ci, h, w = x.shape
    co, wci, k, k2 = weight.shape
    if wci != ci or k != k2:
        raise DimensionError(f"conv2d: weight {weight.shape} does not fit input {x.shape}")
    pad = (k - 1) // 2
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d: kernel {k} too large for input {x.shape}")

    if norm is None:
        out_data = conv_values(x.data, weight.data, stride)
    else:
        scale, shift = norm.scale, norm.shift
        y, mean, inv_std = _norm_forward(x, scale, shift, norm.running_mean, norm.running_var,
                                         training, norm.momentum, relu=True)
        out_data = conv_values(y, weight.data, stride)
    n = b * co * ho * wo * ci * k * k
    _bump(mults=n, adds=n)

    # each closure keeps only its inputs and the norm's per-map statistics, not
    # y: every local it read would be kept on the tape with it, until the backward
    if norm is None:
        def backward_fn(g, accum):
            gx, gw = _conv_backward(x.data, weight.data, stride, g, x.requires_grad)
            accum(x, gx)  # None exactly when x needs no gradient, which accum skips
            accum(weight, gw)

        return _taped(out_data, backward_fn, x, weight)

    def fused_backward(g, accum):
        d = x.data - _per_map(mean)
        # y in the forward's order: d * (inv_std * scale), + shift, the ReLU
        y = np.multiply(d, _per_map(inv_std * scale.data))
        y += _per_map(shift.data)
        np.maximum(y, 0, out=y)
        gy, gw = _conv_backward(y, weight.data, stride, g, True)
        accum(weight, gw)
        _norm_backward(gy * (y > 0), d, x, scale, shift, inv_std, training, accum)

    return _taped(out_data, fused_backward, x, weight, scale, shift)


class Conv2d:
    """A bias-free convolution with a fixed stride."""

    def __init__(self, weight, stride=1):
        self.weight = weight
        self.stride = stride

    def forward(self, x, norm=None, training=False):
        return conv2d(x, self.weight, self.stride, norm=norm, training=training)

    def params(self):
        return [("weight", self.weight)]


# the axes a per-map statistic reduces: batch, rows and columns of (..., b, c, h, w)
_MAP_AXES = (-4, -2, -1)


def _per_map(v):
    # a per-map vector (..., c) laid out against (..., b, c, h, w)
    return v[..., None, :, None, None]


def _map_dot(a, b):
    """The per-map sum of a * b over the batch and spatial axes, in one pass and no temporary."""
    # einsum reads each slice of a stack (K, b, c, h, w) as it reads one unstacked
    # array, so every slice of the result equals the unstacked sum bit for bit
    return np.einsum("...bchw,...bchw->...c", a, b)


def norm_values(x, scale, shift, running=None, add=None, relu=False):
    """The per-map normalization of x in NumPy, then ``+ add`` and the ReLU if asked
    for: (out, mean, var, inv_std).

    Without ``running`` the statistics are x's own over the batch and spatial
    axes (training); with ``running = (mean, var)`` they are those (eval).
    Per-map vectors are (..., c); their leading axes, and add's, broadcast with
    x's. One output buffer takes d = x - mean, and every later step runs on it
    in place: ``*= inv_std * scale``, ``+= shift``, ``+= add``, ``max(., 0)``.
    In training the mean is one sum and the biased variance is taken from d,
    so it stays the centered two-pass form. The eval norm is not folded into
    ``x * a + (shift - mean * a)``, which cancels when |mean| is much larger
    than the std.
    """
    mean, var = (x.mean(axis=_MAP_AXES), None) if running is None else running
    terms = [_per_map(v) for v in (mean, scale, shift)]
    if add is not None:
        terms.append(add)
    out = np.empty(np.broadcast(x, *terms).shape, dtype=np.result_type(x, *terms))
    np.subtract(x, terms[0], out=out)
    if var is None:
        var = _map_dot(out, out) / (x.shape[-4] * x.shape[-2] * x.shape[-1])
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    out *= _per_map(inv_std * scale)
    out += terms[2]
    if add is not None:
        out += add
    if relu:
        np.maximum(out, 0, out=out)
    return out, mean, var, inv_std


def _norm_forward(x, scale, shift, running_mean, running_var, training, momentum,
                  add=None, relu=False):
    """A batch norm's checks, values, running-estimate update and count on the
    Tensors x, scale, shift and add: (out, mean, inv_std)."""
    if x.ndim != 4:
        raise DimensionError(f"batch_norm: expected rank-4 input, got {x.shape}")
    b, c, h, w = x.shape
    if scale.shape != (c,) or shift.shape != (c,):
        raise DimensionError(
            f"batch_norm: scale/shift {scale.shape}/{shift.shape} for {c} maps")
    if add is not None and add.shape != x.shape:
        raise DimensionError(f"batch_norm: add {add.shape} does not fit input {x.shape}")
    if training and b < 2:
        raise ContractError(f"batch_norm: training mode needs batch >= 2, got {b}")
    # eval's mean is a copy: at float64 the backward must not see a later in-place update
    running = None if training else (running_mean.astype(x.data.dtype),
                                     running_var.astype(x.data.dtype, copy=False))
    out, mean, var, inv_std = norm_values(
        x.data, scale.data, shift.data, running, None if add is None else add.data, relu)
    if training:
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    n = out.size
    _bump(mults=n, adds=2 * n if add is not None else n, activations=n if relu else 0)
    return out, mean, inv_std


def _norm_backward(g, d, x, scale, shift, inv_std, training, accum):
    """A batch norm's gradients from g, its output's gradient (ReLU-masked), and
    d = x - mean, on which x's is built in place."""
    sum_g = np.einsum("bchw->c", g)
    sum_gd = _map_dot(g, d)
    accum(scale, inv_std * sum_gd)
    accum(shift, sum_g)
    if not x.requires_grad:
        return
    a = _per_map(inv_std * scale.data)
    if training:
        b, _, h, w = g.shape
        m = b * h * w
        # g - sum(g) / m - d * inv_std^2 * sum(g * d) / m, on d
        d *= _per_map(inv_std * inv_std * sum_gd / m)
        d += _per_map(sum_g / m)
        gx = np.subtract(g, d, out=d)
        gx *= a
        accum(x, gx)
    else:
        accum(x, g * a)


def batch_norm(x, scale, shift, running_mean, running_var,
               training, momentum=BN_MOMENTUM, add=None, relu=False):
    """Normalize each map over the batch and spatial axes, then rescale; then add
    ``add`` (a shortcut of x's shape) and apply the ReLU, if asked for.

    Training mode uses batch statistics (biased variance) and folds them
    into the running estimates in place. Eval mode applies the running
    estimates. Counted cost is two operations per element in either mode,
    since the normalization constants fold into a single scale-and-shift,
    plus the add's one add and the ReLU's one activation per element, as the
    unfused ops charge them.

    One op keeps one output: the sum before the ReLU and the norm's own
    output are never kept. The backward takes the ReLU's mask from the
    output (out > 0 exactly where the sum is, NaN included), passes the
    masked gradient g to ``add`` and then through the norm, so every gradient
    equals the one of the norm, the add and the ReLU as three ops, bit for bit.
    The norm's backward recomputes d = x - mean once and takes each map's
    sum(g) and sum(g * d): the shift's gradient is sum(g), the scale's
    inv_std * sum(g * d), and in training x's is
    a * (g - sum(g) / m - d * inv_std^2 * sum(g * d) / m), a = inv_std * scale,
    built in place on d (m values per map); in eval it is a * g. Every sum is
    centered, as in the forward (Ioffe & Szegedy 2015, arXiv:1502.03167).
    """
    x, scale, shift = _tensor(x), _tensor(scale), _tensor(shift)
    add = None if add is None else _tensor(add)
    out_data, mean, inv_std = _norm_forward(x, scale, shift, running_mean, running_var,
                                            training, momentum, add, relu)

    def backward_fn(g, accum):
        if relu:
            g = g * (out_data > 0)
        if add is not None:
            accum(add, g)
        _norm_backward(g, x.data - _per_map(mean), x, scale, shift, inv_std, training, accum)

    if add is None:
        return _taped(out_data, backward_fn, x, scale, shift)
    return _taped(out_data, backward_fn, x, scale, shift, add)


class BatchNorm:
    """Per-map batch normalization with learned scale and shift."""

    def __init__(self, maps, dtype=np.float32):
        self.scale = Tensor(np.ones(maps, dtype=dtype), requires_grad=True)
        self.shift = Tensor(np.zeros(maps, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(maps, dtype=np.float64)
        self.running_var = np.ones(maps, dtype=np.float64)
        self.momentum = BN_MOMENTUM

    def forward(self, x, training, add=None, relu=False):
        return batch_norm(x, self.scale, self.shift, self.running_mean,
                          self.running_var, training, self.momentum, add, relu)

    def params(self):
        return [("scale", self.scale), ("shift", self.shift)]

    def state(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


def pool2x2_values(x):
    """Mean of each 2x2 window over the last two axes of x, in NumPy."""
    # pairwise order: bit-identical to reshape(b, c, h/2, 2, w/2, 2).mean(axis=(3, 5))
    return ((x[..., 0::2, 0::2] + x[..., 0::2, 1::2])
            + (x[..., 1::2, 0::2] + x[..., 1::2, 1::2])) * 0.25


def pool2x2_grad(g):
    """The gradient of ``pool2x2_values``'s input from its output's gradient g (b, c, h, w)."""
    return np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * np.asarray(0.25, dtype=g.dtype)


def meanpool2x2(x):
    """Average non-overlapping 2x2 spatial windows; extents must be even."""
    x = _tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"meanpool2x2: expected rank-4 input, got {x.shape}")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"meanpool2x2: extents must be even, got {h}x{w}")
    pooled = pool2x2_values(x.data)
    _bump(mults=pooled.size, adds=4 * pooled.size)

    def backward_fn(g, accum):
        accum(x, pool2x2_grad(g))

    return _taped(pooled, backward_fn, x)


def global_pool_values(x):
    """Mean of each map of x (..., c, h, w) over its spatial positions, in NumPy."""
    return x.mean(axis=(-2, -1))


def global_avg_pool(x):
    """Average each map over all spatial positions: b*c*H*W -> b*c."""
    x = _tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"global_avg_pool: expected rank-4 input, got {x.shape}")
    b, c, h, w = x.shape
    _bump(mults=b * c, adds=b * c * h * w)
    scale = 1.0 / (h * w)

    def backward_fn(g, accum):
        gx = np.broadcast_to((g * scale)[:, :, None, None], (b, c, h, w))
        accum(x, gx)

    return _taped(global_pool_values(x.data), backward_fn, x)


class Dense:
    """Fully connected layer: y = x W + b."""

    def __init__(self, weight, bias):
        self.weight = weight
        self.bias = bias

    def forward(self, x):
        return add(matmul(x, self.weight), self.bias)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Taped:
    """Taped ops. ``conv2d`` and ``batch_norm`` are looked up here at call time and a block
    is entered through ``ResidualBlock.forward``, so wrappers on those names see every call;
    a norm run inside a conv is that conv's ``conv2d`` call with ``norm``."""

    def __init__(self, training):
        self.training = training

    def conv(self, layer, x, norm=None):
        return layer.forward(x, norm, self.training)

    def norm(self, layer, x, add=None, relu=False):
        return layer.forward(x, self.training, add, relu)

    def block(self, block, x):
        return block.forward(x, self.training)

    def pad_maps(self, x, maps, stride):
        return pad_maps(space_subsample(x) if stride == 2 else x, maps)


class Values:
    """The training forward's ops in NumPy on arrays with leading axes, ``value_of(t)`` standing
    for each parameter t's data; nothing is recorded, counted or put in the running estimates."""

    def __init__(self, value_of):
        self.value_of = value_of

    def conv(self, layer, x, norm=None):
        if norm is not None:
            x = self.norm(norm, x, relu=True)
        return conv_values(x, self.value_of(layer.weight), layer.stride)

    def norm(self, layer, x, add=None, relu=False):
        scale, shift = self.value_of(layer.scale), self.value_of(layer.shift)
        return norm_values(x, scale, shift, None, add, relu)[0]

    def block(self, block, x):
        return block.run(x, self)

    def pad_maps(self, x, maps, stride):
        kept = x[..., ::2, ::2] if stride == 2 else x
        out = np.zeros(kept.shape[:-3] + (maps,) + kept.shape[-2:], dtype=kept.dtype)
        out[..., :kept.shape[-3], :, :] = kept  # zero maps at the tail
        return out
