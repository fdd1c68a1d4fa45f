"""Residual trunk: stem, three stages of two-conv blocks, per-block taps.

Depth follows the 6n + 2 rule: one stem convolution, n blocks of two 3x3
convolutions per stage across three stages, and one classifier layer. Stage
map counts are (base, 2*base, 4*base); the first block of stages 2 and 3
subsamples with a stride-2 first convolution.

Two block orderings are supported. The ``original`` variant runs
conv-norm-relu-conv-norm, adds the shortcut, then applies a final relu, so
tap outputs are post-activation. The ``preactivation`` variant runs
norm-relu-conv-norm-relu-conv and adds the shortcut with nothing after the
addition, keeping an identity after-addition path; a final norm+relu pair
sits between the last block and the pooling layer. By default the variant
is chosen automatically: preactivation for wide configs (base >= 64),
original otherwise.

Dimension-changing shortcuts default to the parameter-free form (stride-2
spatial subsampling plus zero maps appended at the tail). A 1x1 projection
convolution followed by batch norm is available as a config option.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from .errors import ContractError, DimensionError, InputError
from .layers import BatchNorm, Conv2d, global_avg_pool, he_conv_weight
from .tensor import add, pad_maps, relu, space_subsample

VARIANTS = ("original", "preactivation")
SHORTCUTS = ("pad", "projection")
OUTPUT_GATES = ("tanh", "sigmoid")


@dataclass
class NetworkConfig:
    """Everything needed to build (or cost out) a trunk and its attachments."""

    n: int
    base_maps: int
    classes: int = 10
    variant: str = "auto"
    hidden_size: int = 100
    input_extent: int = 32
    shortcut: str = "pad"
    output_gate: str = "tanh"
    lstm_bias_init: float = -1.0
    learn_c0: bool = True

    def validate(self):
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if self.base_maps < 1:
            raise InputError(f"base_maps must be >= 1, got {self.base_maps}")
        if self.classes < 2:
            raise InputError(f"classes must be >= 2, got {self.classes}")
        if self.hidden_size < 1:
            raise InputError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.variant not in VARIANTS + ("auto",):
            raise InputError(f"variant must be one of {VARIANTS + ('auto',)}, got {self.variant!r}")
        if self.shortcut not in SHORTCUTS:
            raise InputError(f"shortcut must be one of {SHORTCUTS}, got {self.shortcut!r}")
        if self.output_gate not in OUTPUT_GATES:
            raise InputError(f"output_gate must be one of {OUTPUT_GATES}, got {self.output_gate!r}")
        if not abs(self.lstm_bias_init) <= float(np.finfo(np.float32).max):
            raise InputError(f"lstm_bias_init must be a finite float32, got {self.lstm_bias_init}")
        if self.input_extent < 8 or self.input_extent % 8:
            raise InputError(
                f"input_extent must be a positive multiple of 8, got {self.input_extent}")
        return self

    @property
    def layers(self):
        return 6 * self.n + 2

    @property
    def resolved_variant(self):
        if self.variant != "auto":
            return self.variant
        return "preactivation" if self.base_maps >= 64 else "original"

    @property
    def stage_maps(self):
        return (self.base_maps, 2 * self.base_maps, 4 * self.base_maps)

    def as_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Config from a plain dict such as a checkpoint manifest's ``config``.

        A missing, unknown or wrongly typed field raises InputError.
        """
        if not isinstance(d, dict):
            raise InputError(f"config must be an object, got {type(d).__name__}")
        hints = get_type_hints(cls)
        required = {f.name for f in fields(cls) if f.default is MISSING}
        if set(d) - set(hints) or required - set(d):
            raise InputError(f"config fields {sorted(d)} do not match {sorted(hints)}")
        for name, value in d.items():
            want = (int, float) if hints[name] is float else (hints[name],)
            if type(value) not in want:
                raise InputError(f"config field {name!r} is {value!r}, "
                                 f"expected {hints[name].__name__}")
        return cls(**d).validate()


@dataclass(frozen=True)
class BlockSpec:
    """Static geometry of one residual block."""

    stage: int
    index: int
    in_maps: int
    out_maps: int
    stride: int
    in_extent: int
    out_extent: int

    @property
    def changes_shape(self):
        return self.stride != 1 or self.in_maps != self.out_maps


def block_plan(cfg: NetworkConfig):
    """Geometry of all 3n blocks in forward order."""
    specs = []
    extent = cfg.input_extent
    in_maps = cfg.base_maps
    for stage, maps in enumerate(cfg.stage_maps, start=1):
        for index in range(cfg.n):
            stride = 2 if stage > 1 and index == 0 else 1
            out_extent = extent // stride
            specs.append(BlockSpec(stage, index, in_maps, maps, stride, extent, out_extent))
            in_maps = maps
            extent = out_extent
    return specs


class ResidualBlock:
    def __init__(self, spec: BlockSpec, variant, shortcut, rng, dtype=np.float32):
        self.spec = spec
        self.variant = variant
        m_in, m = spec.in_maps, spec.out_maps
        norm1_maps = m if variant == "original" else m_in
        self.conv1 = Conv2d(he_conv_weight(rng, m, m_in, 3, dtype), spec.stride)
        self.bn1 = BatchNorm(norm1_maps, dtype=dtype)
        self.conv2 = Conv2d(he_conv_weight(rng, m, m, 3, dtype), 1)
        self.bn2 = BatchNorm(m, dtype=dtype)
        self.proj = None
        self.proj_bn = None
        if spec.changes_shape and shortcut == "projection":
            self.proj = Conv2d(he_conv_weight(rng, m, m_in, 1, dtype), spec.stride)
            self.proj_bn = BatchNorm(m, dtype=dtype)

    def _shortcut(self, x, training):
        if not self.spec.changes_shape:
            return x
        if self.proj is not None:
            return self.proj_bn.forward(self.proj.forward(x), training)
        s = space_subsample(x) if self.spec.stride == 2 else x
        return pad_maps(s, self.spec.out_maps)

    def _branch(self, x, training):
        if self.variant == "original":
            y = self.bn1.forward(self.conv1.forward(x), training)
            y = self.conv2.forward(relu(y))
            return self.bn2.forward(y, training)
        y = relu(self.bn1.forward(x, training))
        y = self.conv1.forward(y)
        y = relu(self.bn2.forward(y, training))
        return self.conv2.forward(y)

    def forward(self, x, training):
        out = add(self._branch(x, training), self._shortcut(x, training))
        if self.variant == "original":
            out = relu(out)
        return out

    def layers(self):
        """(name, layer) pairs in checkpoint order."""
        if self.variant == "original":
            pieces = [("conv1", self.conv1), ("bn1", self.bn1),
                      ("conv2", self.conv2), ("bn2", self.bn2)]
        else:
            pieces = [("bn1", self.bn1), ("conv1", self.conv1),
                      ("bn2", self.bn2), ("conv2", self.conv2)]
        if self.proj is not None:
            pieces += [("proj", self.proj), ("proj_bn", self.proj_bn)]
        return pieces


class ResidualTrunk:
    """Stem plus 3n residual blocks, exposing every block output as a tap."""

    def __init__(self, cfg: NetworkConfig, rng, dtype=np.float32):
        cfg.validate()
        self.cfg = cfg
        self.variant = cfg.resolved_variant
        self.stem = Conv2d(he_conv_weight(rng, cfg.base_maps, 3, 3, dtype), 1)
        self.stem_bn = BatchNorm(cfg.base_maps, dtype=dtype) if self.variant == "original" else None
        self.blocks = [ResidualBlock(spec, self.variant, cfg.shortcut, rng, dtype)
                       for spec in block_plan(cfg)]
        self.final_bn = (BatchNorm(cfg.stage_maps[-1], dtype=dtype)
                         if self.variant == "preactivation" else None)

    def forward(self, x, training=False, start=0):
        """Return (features, taps): final pre-pool maps and the block outputs.

        With ``start=j > 0``, ``x`` is the output of block j-1: the stem and
        the blocks before j are skipped and the taps are those of blocks j
        onward. ``start=len(blocks)`` runs only the final norm, if any.
        """
        if not 0 <= start <= len(self.blocks):
            raise ContractError(f"start must be in 0..{len(self.blocks)}, got {start}")
        if start == 0:
            maps, e = 3, self.cfg.input_extent
        else:
            spec = self.blocks[start - 1].spec
            maps, e = spec.out_maps, spec.out_extent
        if x.ndim != 4 or x.shape[1:] != (maps, e, e):
            raise DimensionError(f"trunk expects b*{maps}*{e}*{e} input at block {start}, "
                                 f"got {x.shape}")
        y = x
        if start == 0:
            y = self.stem.forward(x)
            if self.stem_bn is not None:
                y = relu(self.stem_bn.forward(y, training))
        taps = []
        for block in self.blocks[start:]:
            y = block.forward(y, training)
            taps.append(y)
        features = y
        if self.final_bn is not None:
            features = relu(self.final_bn.forward(features, training))
        return features, taps

    def layers(self):
        """(name, layer) pairs in checkpoint order: stem, blocks, final norm."""
        out = [("stem.conv", self.stem), ("stem.bn", self.stem_bn)]
        for block in self.blocks:
            prefix = f"stage{block.spec.stage}.block{block.spec.index}"
            out += [(f"{prefix}.{name}", layer) for name, layer in block.layers()]
        out.append(("final.bn", self.final_bn))
        return [(name, layer) for name, layer in out if layer is not None]

    def named_params(self):
        return [(f"{prefix}.{n}", t) for prefix, layer in self.layers()
                for n, t in layer.params()]

    def named_state(self):
        return [(f"{prefix}.{n}", a) for prefix, layer in self.layers()
                if isinstance(layer, BatchNorm) for n, a in layer.state()]


def build_trunk(cfg: NetworkConfig, seed=0, dtype=np.float32):
    return ResidualTrunk(cfg, np.random.default_rng(seed), dtype)


def trunk_forward(trunk: ResidualTrunk, x, training=False, start=0):
    """Return (pool_out, taps) where pool_out is the global average pool."""
    features, taps = trunk.forward(x, training, start)
    return global_avg_pool(features), taps
