"""Full model assembly: trunk + tap adapters + LSTM + classifier head.

Each tap is mean-pooled 2x2 and flattened in (map, row, col) order.
``adapt_values`` is that arithmetic in NumPy, and ``adapt_tap`` runs it as
one taped op, so the tape keeps the pooled row. The LSTM's input width is
the widest pooled tap, which is always the stage-1 width: base_maps *
(input_extent/2)^2. A narrower row counts as zero-padded at its tail: the
LSTM step multiplies only its rows of the input weights, forward and
backward, and charges the full width (see ``lstm``). The LSTM reads the
adapted taps shallowest-first; the final hidden state is concatenated after
the trunk's global-pool features and fed to a single dense layer.

The model runs as one depth-wise loop, ``CrmnModel.run``, over an op table
that adds the adapter, LSTM step, pool and head to the trunk's: ``Taped``
for ``forward``, ``Values`` for the gradient check's stacked probes. The
LSTM reads each tap once the next block has run on it, the last after the
pool, so an untaped forward holds one tap, not all 3n. The lag keeps the
tape order of reading every tap after the trunk: each tap's gradient sums
its terms (adapter, next block's shortcut and first op) in that order.

An untaped, uncounted eval forward of two or more images runs the trunk on
one contiguous slice of them per CPU at once, over the same loop: the
calling thread's op table (``_Merged``) appends the pool threads' adapted
rows and pool features (``_Feed``) to its own, so the LSTM and the head see
the whole batch, and the logits are the serial ones bit for bit.

The LSTM only reads tap values; nothing feeds back into the trunk, so
trunk activations are identical with and without the LSTM attached. One
model class covers both: built without an LSTM it is the plain ResNet
baseline (trunk + pool + dense) on the identical trunk.
"""

from __future__ import annotations

import os

import numpy as np

from . import layers, lstm
from .errors import DimensionError
from .layers import (Dense, global_avg_pool, global_pool_values, he_dense_weight, pool2x2_grad,
                     pool2x2_values)
# run_sequence and trunk_forward are unused here: bench/tracer.py wraps them in this module
from .lstm import LstmState, gate_values, init_lstm, initial_state, run_sequence
from .resnet import NetworkConfig, ResidualTrunk, build_trunk, seeded_rng, trunk_forward
from .tensor import _ACTIVE, Tensor, _bump, _taped, _tensor, concat_cols

TAP_FLATTEN_ORDER = "map,row,col"


def max_lstm_width(cfg: NetworkConfig):
    """Width of the widest pooled tap (attained by stage 1)."""
    return cfg.base_maps * (cfg.input_extent // 2) ** 2


def adapt_values(tap):
    """Meanpool 2x2 and flatten (map, row, col), in NumPy.

    ``tap`` is (..., maps, rows, cols); leading axes stay.
    """
    return pool2x2_values(tap).reshape(tap.shape[:-3] + (-1,))


def adapt_tap(tap):
    """The tap's ``adapt_values`` as one taped op, which keeps only its pooled row."""
    tap = _tensor(tap)
    if tap.ndim != 4 or tap.shape[2] % 2 or tap.shape[3] % 2:
        raise DimensionError(f"adapt_tap: expected a rank-4 tap of even extents, got {tap.shape}")
    b, maps, h, w = tap.shape
    pooled = maps * (h // 2) * (w // 2)
    _bump(mults=b * pooled, adds=4 * b * pooled)  # meanpool2x2's count

    def backward_fn(g, accum):
        accum(tap, pool2x2_grad(g.reshape(b, maps, h // 2, w // 2)))

    return _taped(adapt_values(tap.data), backward_fn, tap)


class Taped(layers.Taped):
    """The trunk's taped ops plus the memory path and head. ``adapt_tap`` and
    ``lstm.lstm_step`` are looked up at call time, so wrappers on them see every call."""

    start = staticmethod(initial_state)
    pool = staticmethod(global_avg_pool)

    def adapt(self, tap):
        return adapt_tap(tap)

    def step(self, p, x, state):
        return lstm.lstm_step(p, x, state)

    def head(self, head, pool, hidden):
        return head.forward(pool if hidden is None else concat_cols(pool, hidden))


class Values(layers.Values):
    """The trunk's NumPy ops plus the memory path and head, on arrays whose leading
    axes broadcast; an LSTM state is an ``LstmState`` of arrays."""

    pool = staticmethod(global_pool_values)
    adapt = staticmethod(adapt_values)

    def __init__(self, value_of):
        super().__init__(value_of)
        self._weights = {}  # each LSTM cell's step weights, by cell

    def start(self, p, batch):
        return LstmState(*(np.broadcast_to(v, np.broadcast_shapes(v.shape, (batch, p.hidden)))
                           for v in (self.value_of(p.h0), self.value_of(p.c0))))

    def step(self, p, x, state):
        w = self._weights.get(p)
        if w is None:
            w = self._weights[p] = {n: self.value_of(t) for n, t in p.named_params()}
        *_, c, o, tc = gate_values(x, state.h, state.c, w, p.output_gate)
        return LstmState(o * tc, c)

    def head(self, head, pool, hidden):
        if hidden is not None:
            lead = np.broadcast_shapes(pool.shape[:-1], hidden.shape[:-1])
            pool = np.concatenate([np.broadcast_to(v, lead + v.shape[-1:])
                                   for v in (pool, hidden)], axis=-1)
        return pool @ self.value_of(head.weight) + self.value_of(head.bias)


class _Feed(Taped):
    """A pool thread's eval ops on one slice: each adapted tap and the pool features go
    to ``put``, in the order the calling thread's ``run`` reads them; no LSTM or head runs."""

    def __init__(self, put):
        super().__init__(False)
        self.put = put

    def start(self, *args):
        return None

    step = head = start

    def adapt(self, tap):
        self.put(adapt_tap(tap).data)

    def pool(self, features):
        self.put(global_avg_pool(features).data)


class _Merged(Taped):
    """The calling thread's eval ops on slice 0: each adapted tap and the pool features
    take the other slices' rows from their ``queues`` in image order, so the LSTM, from
    a ``batch``-row initial state, and the head run on the whole batch."""

    def __init__(self, batch, queues):
        super().__init__(False)
        self.batch = batch
        self.queues = queues

    def start(self, p, batch):
        return initial_state(p, self.batch)

    def adapt(self, tap):
        return self._merge(adapt_tap(tap))

    def pool(self, features):
        return self._merge(global_avg_pool(features))

    def _merge(self, rows):
        parts = [rows.data]
        for queue in self.queues:
            part = queue.get()
            if isinstance(part, BaseException):
                raise part  # a pool thread's, its type unchanged
            parts.append(part)
        return Tensor(np.concatenate(parts))


def _cpus():
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_workers = None  # the sliced eval's ThreadPoolExecutor, made by its first call


def _forget_workers():
    global _workers
    _workers = None  # a forked child has none of its parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _decays(name):
    no_decay = (".shift", ".bias", ".b_i", ".b_f", ".b_c", ".b_o", ".h0", ".c0")
    return not name.endswith(no_decay)


class CrmnModel:
    """Trunk + pool + dense head, with the depth-wise memory path if ``lstm`` is set."""

    def __init__(self, cfg: NetworkConfig, trunk: ResidualTrunk, head: Dense, lstm=None):
        self.cfg = cfg
        self.trunk = trunk
        self.head = head
        self.lstm = lstm
        self.kind = "resnet" if lstm is None else "crmn"
        # the input normalization the model was trained on (one of
        # data.NORMALIZE_MODES) and mean_pixel's mean image; checkpoints record both
        self.normalize = "none"
        self.mean_image = None

    def forward(self, x, training=False, return_parts=False):
        """Logits of x; with ``return_parts`` also the pool features, the taps and
        (CRMN only) the final hidden state. Taps are kept only for ``return_parts``.

        An eval forward of b >= 2 images without ``return_parts``, and with no
        tape or ``count_ops`` counter open in this thread, splits them into
        k = min(b, CPUs) contiguous slices: k - 1 pool threads each run one
        slice's trunk, adapters and pool, while this thread runs slice 0's and
        steps the LSTM and the head on the whole batch. The logits are the
        serial ones bit for bit: in eval mode each image's trunk output does
        not depend on its batch (every norm uses its running estimates), and
        the LSTM and head get the serial operands. Run per slice they would
        not be, as a GEMM's rows depend on its row count. Every other forward
        runs on this thread alone.
        """
        if not (training or return_parts or _ACTIVE.tapes or _ACTIVE.counters):
            x = _tensor(x)
            k = min(x.shape[0], _cpus()) if x.ndim == 4 else 1
            if k > 1:
                return self._sliced(x, k)
        taps = [] if return_parts else None
        logits, pool_out, hidden = self.run(x, Taped(training), taps=taps)
        parts = {"pool_out": pool_out, "taps": taps}
        if hidden is not None:
            parts["hidden"] = hidden
        return (logits, parts) if return_parts else logits

    def _sliced(self, x, k):
        """The eval logits of x over k contiguous slices at once; see ``forward``."""
        global _workers
        # imported here: importing crmn, and every forward that does not slice, pay nothing
        from concurrent.futures import ThreadPoolExecutor
        from queue import SimpleQueue
        if _workers is None:
            _workers = ThreadPoolExecutor(max(1, _cpus() - 1), "crmn-eval")
        edges = [x.shape[0] * i // k for i in range(k + 1)]
        slices = [Tensor(x.data[a:b]) for a, b in zip(edges, edges[1:])]
        queues = [SimpleQueue() for _ in slices[1:]]
        jobs = [_workers.submit(self._feed, s, q.put) for s, q in zip(slices[1:], queues)]
        try:
            return self.run(slices[0], _Merged(x.shape[0], queues))[0]
        finally:
            for job in jobs:
                job.exception()  # waits for it, also when this thread raises

    def _feed(self, x, put):
        """A pool thread's share of ``_sliced``: slice x's rows, or what it raised, to ``put``."""
        try:
            self.run(x, _Feed(put))
        except BaseException as exc:
            put(exc)

    def run(self, x, ops, start=0, state=None, taps=None):
        """(logits, pool features, final hidden or None) of x through ``ops``.

        ``x`` is block ``start``'s input (the images at 0) and ``state`` the
        LSTM state before its tap, by default the initial state. The LSTM reads
        each tap once the next block has run on it, the last after the pool;
        a ``taps`` list keeps every tap read.
        """
        if self.lstm is not None and state is None:
            state = ops.start(self.lstm, x.shape[0])

        def read(tap):
            nonlocal state
            if taps is not None:
                taps.append(tap)
            if self.lstm is not None:
                state = ops.step(self.lstm, ops.adapt(tap), state)

        features, unread = self.trunk.run(x, ops, start, read)
        pool = ops.pool(features)
        for tap in unread:
            read(tap)
        hidden = None if state is None else state.h
        return ops.head(self.head, pool, hidden), pool, hidden

    def named_params(self):
        """Ordered (name, tensor, decays) triples over all trainable scalars."""
        out = [(f"trunk.{n}", t) for n, t in self.trunk.named_params()]
        if self.lstm is not None:
            out += [(f"lstm.{n}", t) for n, t in self.lstm.named_params()]
        out += [(f"head.{n}", t) for n, t in self.head.params()]
        return [(n, t, _decays(n)) for n, t in out if t.requires_grad]

    def named_state(self):
        return [(f"trunk.{n}", a) for n, a in self.trunk.named_state()]

    def named_arrays(self):
        """Checkpoint order: the data of every named param, then batch-norm state."""
        return [(n, t.data) for n, t, _ in self.named_params()] + self.named_state()

    def snapshot(self):
        return {n: a.copy() for n, a in self.named_arrays()}

    def restore(self, snap):
        for n, a in self.named_arrays():
            a[...] = snap[n]


# kept as a name: bench/tracer.py wraps forward through vars() of both names
ResnetModel = CrmnModel


def _head(rng, fan_in, classes, dtype):
    weight = he_dense_weight(rng, fan_in, classes, dtype)
    bias = Tensor(np.zeros(classes, dtype=dtype), requires_grad=True)
    return Dense(weight, bias)


def build_crmn(cfg: NetworkConfig, seed=0, dtype=np.float32):
    """Deterministic assembly; trunk, LSTM, and head draw from offset seeds.

    ``seed=None`` allocates every parameter and state array at its shape and
    dtype and draws nothing: the weight matrices are zeros, the other arrays
    take their constant initial values. ``checkpoint.load_model`` builds so.
    """
    cfg.validate()
    trunk = build_trunk(cfg, seed, dtype)
    width = max_lstm_width(cfg)
    lstm = init_lstm(width, cfg.hidden_size, seeded_rng(seed, 1),
                     bias_init=cfg.lstm_bias_init, learn_c0=cfg.learn_c0,
                     output_gate=cfg.output_gate, dtype=dtype)
    head = _head(seeded_rng(seed, 2), cfg.stage_maps[-1] + cfg.hidden_size, cfg.classes, dtype)
    return CrmnModel(cfg, trunk, head, lstm)


def build_resnet(cfg: NetworkConfig, seed=0, dtype=np.float32):
    """The plain baseline on the same trunk; ``seed=None`` as in ``build_crmn``."""
    cfg.validate()
    trunk = build_trunk(cfg, seed, dtype)
    head = _head(seeded_rng(seed, 2), cfg.stage_maps[-1], cfg.classes, dtype)
    return CrmnModel(cfg, trunk, head)
