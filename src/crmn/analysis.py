"""Closed-form parameter, operation and memory accounting.

Counts derive from the config alone, never from instantiated tensors. The
operation convention: every scalar multiply, add, and activation evaluation
is one operation; data movement (padding, subsampling, reshapes, concat,
broadcast) is free; batch-norm costs two operations per element in either
mode since the normalization constants fold into one scale-and-shift.

One list, ``_trunk_layers``, states the trunk's ops once, in forward order,
from the same block plan the builder uses. The parameter count, the
operation count and ``tape_bytes`` are each a sum over that list. Operations
are charged per op as the instrumented tensor ops charge them and totalled
in the same ``OpCounter`` that ``count_ops()`` yields, so an instrumented
forward pass must agree exactly.

``tape_bytes`` counts the bytes of array data a taped training forward keeps
alive until its backward, per block. Every recorded op keeps its output and
nothing else of size; a batch norm also keeps its per-map mean and inverse
std. A ReLU or shortcut add fused into its norm keeps nothing: the fused op
has one output. Views (subsampling, broadcast initial states) and pads that
leave their input as it is keep nothing new. Python object headers are not
counted, so traced growth exceeds the count by a few hundred bytes per op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import InputError
from .model import adapter_trace, max_lstm_width
from .resnet import NetworkConfig, block_plan
from .tensor import OpCounter

KINDS = ("crmn", "resnet")


def _add_into(ops, part, times=1):
    ops.mults += times * part.mults
    ops.adds += times * part.adds
    ops.activations += times * part.activations


@dataclass
class CostReport:
    kind: str
    config: dict
    params_trunk: int
    params_lstm: int
    params_head: int
    flops: dict
    block_breakdown: list = field(default_factory=list)
    lstm_step_flops: int = 0
    flops_ratio_vs_resnet: float | None = None

    @property
    def params_total(self):
        return self.params_trunk + self.params_lstm + self.params_head

    @property
    def params_millions(self):
        return self.params_total / 1e6

    def as_json(self):
        return {
            "kind": self.kind,
            "config": self.config,
            "params": {
                "trunk": self.params_trunk,
                "lstm": self.params_lstm,
                "head": self.params_head,
                "total": self.params_total,
                "millions": round(self.params_millions, 2),
            },
            "flops": self.flops,
            "lstm_step_flops": self.lstm_step_flops,
            "flops_ratio_vs_resnet": self.flops_ratio_vs_resnet,
            "block_breakdown": self.block_breakdown,
        }


def _trunk_layers(cfg: NetworkConfig):
    """Every recorded trunk op in forward order, as (block, op, maps, extent, fan_in).

    ``block`` is the op's ``BlockSpec``, or None for the stem, the final norm
    and the pool. ``op`` names the op, or the parts of a fused one joined by
    "+": a norm with the ReLU after it ("norm+relu"), and the original
    variant's block tail ("norm+add+relu"). ``maps`` and ``extent`` describe
    the op's output; ``fan_in`` is the number of inputs summed into each
    output value (a conv's in_maps * k * k, the pool's window) and 1 for every
    other op. The stride-2 subsample is a view and is not listed; the map pad
    copies and is. A block's rows are consecutive, so grouping by ``block``
    gives the stem, each block and the tail in turn.
    """
    original = cfg.resolved_variant == "original"
    base, e = cfg.base_maps, cfg.input_extent
    rows = [(None, "conv", base, e, 27)]
    if original:
        rows.append((None, "norm+relu", base, e, 1))
    for spec in block_plan(cfg):
        m_in, m, e_in, e = spec.in_maps, spec.out_maps, spec.in_extent, spec.out_extent
        conv1, conv2 = ("conv", m, e, 9 * m_in), ("conv", m, e, 9 * m)
        norm_relu = ("norm+relu", m, e, 1)
        if original:
            ops = [conv1, norm_relu, conv2]
        else:
            ops = [("norm+relu", m_in, e_in, 1), conv1, norm_relu, conv2]
        if spec.changes_shape and cfg.shortcut == "projection":
            ops += [("conv", m, e, m_in), ("norm", m, e, 1)]
        elif m_in < m:
            ops.append(("pad", m, e, 1))
        ops.append(("norm+add+relu", m, e, 1) if original else ("add", m, e, 1))
        rows += [(spec, *op) for op in ops]
    m = cfg.stage_maps[-1]  # and e is the last block's output extent
    if not original:
        rows.append((None, "norm+relu", m, e, 1))
    rows.append((None, "pool", m, 1, e * e))
    return rows


def trunk_param_count(cfg: NetworkConfig):
    return sum(maps * fan_in if op == "conv" else 2 * maps if op.startswith("norm") else 0
               for _, op, maps, _, fan_in in _trunk_layers(cfg))


def lstm_param_count(i, h, learn_c0=True):
    """4 gate matrices/biases + 3 peepholes + learned initial state."""
    total = 4 * (h * i + h * h + h) + 3 * h + h
    if learn_c0:
        total += h
    return total


def _charge(op, values, fan_in):
    """Operations of one op with ``values`` output values, as tensor and layers charge them.

    A fused op charges the sum of its parts.
    """
    ops = OpCounter()
    for part in op.split("+"):
        if part in ("conv", "norm"):  # a norm's fan_in is 1: one scale and one shift per value
            ops.mults += values * fan_in
            ops.adds += values * fan_in
        elif part == "pool":
            ops.mults += values
            ops.adds += values * fan_in
        elif part == "add":
            ops.adds += values
        elif part == "relu":
            ops.activations += values
    return ops


def _trunk_flops(cfg: NetworkConfig, batch, breakdown):
    ops = OpCounter()
    for block, rows in groupby(_trunk_layers(cfg), key=itemgetter(0)):
        part = OpCounter()
        for _, op, maps, extent, fan_in in rows:
            _add_into(part, _charge(op, batch * maps * extent * extent, fan_in))
        if block is not None:
            breakdown.append({"stage": block.stage, "index": block.index,
                              "maps": block.out_maps, "extent": block.out_extent,
                              "kernel": 3, "cost": part.total})
        _add_into(ops, part)
    return ops


def _adapter_flops(cfg: NetworkConfig, batch):
    ops = OpCounter()
    out = batch * sum(tap.pooled_width for tap in adapter_trace(cfg))
    ops.mults += out
    ops.adds += 4 * out
    return ops


def lstm_step_ops(i, h, batch=1):
    """Exact per-step operation counts of one cell update at input width i. A
    model charges every step this full width, as if each narrower tap were
    zero-padded, although the step multiplies only that tap's rows of W_x."""
    ops = OpCounter()
    ops.mults = batch * (4 * (h * i + h * h) + 6 * h)
    ops.adds = batch * (4 * (h * i + h * h) + 12 * h)
    ops.activations = batch * 5 * h
    return ops


def _head_flops(d, classes, batch):
    ops = OpCounter()
    ops.mults = batch * d * classes
    ops.adds = batch * d * classes + batch * classes  # the product, then the bias
    return ops


def cost_report(kind, cfg: NetworkConfig, batch=1) -> CostReport:
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    cfg.validate()
    breakdown = []
    trunk_ops = _trunk_flops(cfg, batch, breakdown)
    resnet_total = trunk_ops.total + _head_flops(cfg.stage_maps[-1], cfg.classes, batch).total
    flops = {"trunk": trunk_ops.as_dict()}
    h, params_lstm, step_total = 0, 0, 0
    if kind == "crmn":
        h = cfg.hidden_size
        width = max_lstm_width(cfg)
        step = lstm_step_ops(width, h, batch)
        lstm_ops = OpCounter()
        _add_into(lstm_ops, step, times=3 * cfg.n)
        flops["adapter"] = _adapter_flops(cfg, batch).as_dict()
        flops["lstm"] = lstm_ops.as_dict()
        params_lstm = lstm_param_count(width, h, cfg.learn_c0)
        step_total = step.total
    flops["head"] = _head_flops(cfg.stage_maps[-1] + h, cfg.classes, batch).as_dict()
    flops["total"] = sum(part["total"] for part in flops.values())
    ratio = flops["total"] / resnet_total if kind == "crmn" else None
    params_head = (cfg.stage_maps[-1] + h) * cfg.classes + cfg.classes
    return CostReport(kind, cfg.as_dict(), trunk_param_count(cfg), params_lstm, params_head,
                      flops, breakdown, step_total, ratio)


def tape_bytes(kind, cfg: NetworkConfig, batch=1):
    """Bytes of float32 array data a taped training forward retains, by part and per block.

    A training step peaks at about this plus its parameter gradients, since
    backward frees each entry once its closure has run.
    """
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    cfg.validate()
    size = np.dtype(np.float32).itemsize  # training runs in float32
    trunk, blocks = 0, []
    for block, rows in groupby(_trunk_layers(cfg), key=itemgetter(0)):
        # each op keeps its output; a norm also its per-map mean and inverse std
        kept = sum(size * (batch * maps * extent * extent
                           + (2 * maps if op.startswith("norm") else 0))
                   for _, op, maps, extent, _ in rows)
        if block is not None:
            blocks.append({"stage": block.stage, "index": block.index, "bytes": kept})
        trunk += kept
    parts = {"trunk": trunk}
    head = 2 * size * batch * cfg.classes  # product and bias add
    if kind == "crmn":
        # each adapter keeps its pooled row, which the LSTM step reads as it is
        parts["adapter"] = size * batch * sum(row.pooled_width for row in adapter_trace(cfg))
        # per step: the four gates, tanh(c), and the new c and h
        parts["lstm"] = 3 * cfg.n * 7 * size * batch * cfg.hidden_size
        head += size * batch * (cfg.stage_maps[-1] + cfg.hidden_size)  # concatenated features
    parts["head"] = head
    parts["total"] = sum(parts.values())
    parts["blocks"] = blocks
    return parts


def config_for(layers, fm_mult, hidden=100, classes=100, **kwargs) -> NetworkConfig:
    """Config from a Table-style (layers, feature-map multiplier) cell."""
    if layers < 8 or (layers - 2) % 6:
        raise InputError(f"layers must be 6n+2 for integer n >= 1, got {layers}")
    base = 16 * fm_mult
    if not np.isfinite(base) or abs(base - round(base)) > 1e-9 or round(base) < 1:
        raise InputError(f"fm-mult {fm_mult} does not give a whole positive map count")
    cfg = NetworkConfig(n=(layers - 2) // 6, base_maps=int(round(base)), classes=classes,
                        hidden_size=hidden, **kwargs).validate()
    # a report gives its counts as floats too (millions, ratios), and a CRMN's
    # counts bound the ResNet's
    report = cost_report("crmn", cfg)
    try:
        float(report.params_total), float(report.flops["total"])
    except OverflowError:
        raise InputError(f"fm-mult {fm_mult} gives counts too large to report") from None
    return cfg


def default_grid():
    """The 12 (kind, config) rows of the reference comparison grid."""
    cells = [("resnet", 134, 1), ("resnet", 104, 1.5), ("resnet", 92, 2), ("resnet", 62, 4),
             ("resnet", 32, 1), ("resnet", 32, 1.5), ("resnet", 32, 2), ("resnet", 32, 4),
             ("crmn", 32, 1), ("crmn", 32, 1.5), ("crmn", 32, 2), ("crmn", 32, 4)]
    return [(kind, config_for(layers, fm)) for kind, layers, fm in cells]


def _fm_label(base):
    mult = base / 16
    return str(int(mult)) if mult == int(mult) else str(mult)


def render_table(entries):
    """Text grid of model / layers / feature-map multiplier / parameters."""
    header = ("Model", "Layers", "F.map 16x", "Parameters (million)")
    rows = [header]
    for kind, cfg in entries:
        report = cost_report(kind, cfg)
        rows.append((kind.upper() if kind == "crmn" else "ResNet",
                     str(cfg.layers), _fm_label(cfg.base_maps),
                     f"{report.params_millions:.2f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for j, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    return "\n".join(lines)
