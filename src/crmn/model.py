"""Full model assembly: trunk + tap adapters + LSTM + classifier head.

Each tap is mean-pooled 2x2, flattened in (map, row, col) order, and
zero-padded at the tail to the widest pooled tap, which is always the
stage-1 width: base_maps * (input_extent/2)^2. The adapted taps run through
the LSTM shallowest-first; the final hidden state is concatenated after the
trunk's global-pool features and fed to a single dense layer.

The LSTM only reads tap values; nothing feeds back into the trunk, so
trunk activations are identical with and without the LSTM attached. One
model class covers both: built without an LSTM it is the plain ResNet
baseline (trunk + pool + dense) on the identical trunk.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .layers import Dense, he_dense_weight, meanpool2x2, pool2x2_values
from .lstm import init_lstm, run_sequence
from .resnet import (NetworkConfig, ResidualTrunk, block_plan, build_trunk, seeded_rng,
                     trunk_forward)
from .tensor import Tensor, concat_cols, pad_cols, reshape

TAP_FLATTEN_ORDER = "map,row,col"


def max_lstm_width(cfg: NetworkConfig):
    """Width of the widest pooled tap (attained by stage 1)."""
    return cfg.base_maps * (cfg.input_extent // 2) ** 2


def adapt_tap(tap, max_width):
    """Meanpool 2x2, flatten (map, row, col), zero-pad tail to max_width."""
    pooled = meanpool2x2(tap)
    flat = reshape(pooled, (pooled.shape[0], -1))
    return pad_cols(flat, max_width)


def adapt_values(tap, max_width):
    """adapt_tap in NumPy on tap (..., b, c, h, w): (..., b, max_width)."""
    pooled = pool2x2_values(tap)
    flat = pooled.reshape(pooled.shape[:-3] + (-1,))
    out = np.zeros(flat.shape[:-1] + (max_width,), dtype=flat.dtype)
    out[..., :flat.shape[-1]] = flat
    return out


TapTrace = namedtuple("TapTrace", "stage index maps extent pooled_width pad")


def adapter_trace(cfg: NetworkConfig):
    """Static per-tap record of pooled widths and pad amounts."""
    width = max_lstm_width(cfg)
    rows = []
    for spec in block_plan(cfg):
        pooled = spec.out_maps * (spec.out_extent // 2) ** 2
        rows.append(TapTrace(spec.stage, spec.index, spec.out_maps,
                             spec.out_extent, pooled, width - pooled))
    return rows


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
        self.max_width = max_lstm_width(cfg)

    def forward(self, x, training=False, return_parts=False):
        pool_out, taps = trunk_forward(self.trunk, x, training)
        parts = {"pool_out": pool_out, "taps": taps}
        features = pool_out
        if self.lstm is not None:
            adapted = [adapt_tap(t, self.max_width) for t in taps]
            parts["hidden"] = run_sequence(self.lstm, adapted)
            features = concat_cols(pool_out, parts["hidden"])
        logits = self.head.forward(features)
        if return_parts:
            return logits, parts
        return logits

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
