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

The block's and the trunk's wiring is written once, in ``run``, over an
op table from ``layers``: ``forward`` runs it over ``Taped``, and the
gradient check over ``Values``, the training forward in NumPy with any
parameter replaced by a stand-in such as a stack of perturbed copies. Every
ReLU follows a norm and is fused into it, and so is the original variant's
shortcut add: the block tail (bn2, the add, the ReLU) is one op, run after
the shortcut's ops. A norm+ReLU that only one convolution reads (the
original block's bn1, the preactivation block's bn1 and bn2) runs inside
that convolution's op, which recomputes it in its backward. A taped
original block so keeps three maps (conv1, conv2, the tail), not four or
seven, and a preactivation block three (conv1, conv2, the sum), not five.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from .errors import ContractError, DimensionError, InputError
from .layers import BatchNorm, Conv2d, Taped, global_avg_pool, he_conv_weight

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
        for name, least in (("n", 1), ("base_maps", 1), ("classes", 2), ("hidden_size", 1)):
            if getattr(self, name) < least:
                raise InputError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name, allowed in (("variant", VARIANTS + ("auto",)), ("shortcut", SHORTCUTS),
                              ("output_gate", OUTPUT_GATES)):
            if getattr(self, name) not in allowed:
                raise InputError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
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

    def run(self, x, ops):
        """The block on x through the op table ``ops`` (``Taped`` or ``Values``).

        Every ReLU is fused into the norm before it, and in the original
        variant so is the shortcut add: bn2, the add and the ReLU are one op,
        run after the shortcut's ops. A norm+ReLU whose only reader is a conv
        runs inside that conv's op: bn1 in conv2's (original), bn1 in conv1's
        and bn2 in conv2's (preactivation).
        """
        # y is rebound once its maps are dead, so an untaped forward frees them early
        if self.variant == "original":
            y = ops.conv(self.conv2, ops.conv(self.conv1, x), norm=self.bn1)
            return ops.norm(self.bn2, y, add=self._shortcut(x, ops), relu=True)
        y = ops.conv(self.conv1, x, norm=self.bn1)
        y = ops.conv(self.conv2, y, norm=self.bn2)
        return y + self._shortcut(x, ops)  # the shortcut runs after the branch, in tape order

    def _shortcut(self, x, ops):
        """The block input x as the branch output's shape, through ``ops``."""
        if self.proj is not None:
            return ops.norm(self.proj_bn, ops.conv(self.proj, x))
        if self.spec.changes_shape:
            return ops.pad_maps(x, self.spec.out_maps, self.spec.stride)
        return x

    def forward(self, x, training):
        return self.run(x, Taped(training))

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
        """Return (features, taps): final pre-pool maps and the block outputs."""
        return self.run(x, Taped(training), start)

    def run(self, x, ops, start=0, read=None):
        """(features, taps) of x from block ``start`` on, through the op table ``ops``.

        With ``start=j > 0``, ``x`` is block j-1's output and the taps are
        those of blocks j onward; ``start=len(blocks)`` runs only the final
        norm, if any. ``read``, if given, takes each tap but the last as soon
        as the next block has run on it; ``taps`` then holds only the last.
        """
        if not 0 <= start <= len(self.blocks):
            raise ContractError(f"start must be in 0..{len(self.blocks)}, got {start}")
        spec = self.blocks[start - 1].spec if start else None
        maps, e = (spec.out_maps, spec.out_extent) if spec else (3, self.cfg.input_extent)
        if x.ndim != 4 or x.shape[1:] != (maps, e, e):
            raise DimensionError(f"trunk expects b*{maps}*{e}*{e} input at block {start}, "
                                 f"got {x.shape}")
        y = x
        if start == 0:
            y = ops.conv(self.stem, x)
            if self.stem_bn is not None:
                y = ops.norm(self.stem_bn, y, relu=True)
        taps = []
        for block in self.blocks[start:]:
            y = ops.block(block, y)
            if read is not None and taps:
                read(taps.pop())
            taps.append(y)
        if self.final_bn is not None:
            y = ops.norm(self.final_bn, y, relu=True)
        return y, taps

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


def seeded_rng(seed, offset=0):
    """The generator of ``seed + offset``; None (draw nothing) when seed is None."""
    return None if seed is None else np.random.default_rng(seed + offset)


def build_trunk(cfg: NetworkConfig, seed=0, dtype=np.float32):
    """A trunk drawn from ``seed``; ``seed=None`` draws nothing and leaves
    every kernel zeros (a trunk whose values are loaded next)."""
    return ResidualTrunk(cfg, seeded_rng(seed), dtype)


def trunk_forward(trunk: ResidualTrunk, x, training=False, start=0):
    """Return (pool_out, taps) where pool_out is the global average pool."""
    features, taps = trunk.forward(x, training, start)
    return global_avg_pool(features), taps
