"""Closed-form parameter, operation and memory accounting.

Counts derive from the config alone, never from instantiated tensors. The
operation convention: every scalar multiply, add, and activation evaluation
is one operation; data movement (padding, subsampling, reshapes, concat,
broadcast) is free; batch-norm costs two operations per element in either
mode since the normalization constants fold into one scale-and-shift.

One list, ``_model_ops``, states every op of the model once, part by part
(trunk, tap adapters, LSTM steps, head), from the same block plan the
builder uses. One walk over that list gives each part's parameter count,
operation count and ``tape_bytes``; only the LSTM's weights, shared by every
step, are counted once per cell by ``lstm_param_count``. Operations are
charged per op as the instrumented tensor ops charge them and totalled in
the same ``OpCounter`` that ``count_ops()`` yields, so an instrumented
forward pass must agree exactly, part by part.

``tape_bytes`` counts the bytes of array data a taped training forward keeps
alive until its backward, per part and per block. Every recorded op keeps
its output and nothing else of size; a batch norm also keeps its per-map
mean and inverse std, and an LSTM step its seven hidden-width arrays. A ReLU
or shortcut add fused into its norm keeps nothing: the fused op has one
output. A norm+ReLU run inside the conv that reads it keeps only its
statistics, since the conv's backward recomputes its output. Views
(subsampling, broadcast initial states) and pads that leave their input as
it is keep nothing new. Python object headers are not counted, so traced
growth exceeds the count by a few hundred bytes per op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import InputError
from .model import max_lstm_width
from .resnet import NetworkConfig, block_plan
from .tensor import OpCounter

KINDS = ("crmn", "resnet")


def _add_into(ops, part):
    ops.mults += part.mults
    ops.adds += part.adds
    ops.activations += part.activations


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


def _model_ops(kind, cfg: NetworkConfig):
    """Every recorded op of a ``kind`` model, as (part, block, op, maps, extent, fan_in).

    ``part`` is "trunk", "adapter", "lstm" or "head". Each part's rows are
    consecutive and in forward order, and so are each block's: grouping by
    part and block gives the stem, each block, the trunk's tail and then
    each other part in turn. ``block`` is a trunk op's ``BlockSpec``, or
    None for the stem, the final norm, the pool and every op outside the
    trunk. ``op`` names the op, or the parts of a fused one joined by "+": a
    norm with the ReLU after it ("norm+relu"), and the original variant's
    block tail ("norm+add+relu"). A norm+relu that only the conv on the next
    row reads runs inside that conv's op ("norm+relu>conv"): the original
    block's bn1, and the preactivation block's bn1 and bn2. ``maps`` and
    ``extent`` describe the op's output, an LSTM step's hidden state;
    ``fan_in`` is the number of inputs summed into each output value (a
    conv's in_maps * k * k, a pool's window, the dense product's features, a
    step's input width) and 1 for every other op. The stride-2 subsample is a view and is not listed; the
    map pad copies and is. Each tap's adapter is a 2x2 pool; every step is
    charged the widest tap's width.
    """
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    cfg.validate()
    original = cfg.resolved_variant == "original"
    base, e = cfg.base_maps, cfg.input_extent
    rows = [("trunk", None, "conv", base, e, 27)]
    if original:
        rows.append(("trunk", None, "norm+relu", base, e, 1))
    plan = block_plan(cfg)
    for spec in plan:
        m_in, m, e_in, e = spec.in_maps, spec.out_maps, spec.in_extent, spec.out_extent
        conv1, conv2 = ("conv", m, e, 9 * m_in), ("conv", m, e, 9 * m)
        fused = ("norm+relu>conv", m, e, 1)
        if original:
            ops = [conv1, fused, conv2]
        else:
            ops = [("norm+relu>conv", m_in, e_in, 1), conv1, fused, conv2]
        if spec.changes_shape and cfg.shortcut == "projection":
            ops += [("conv", m, e, m_in), ("norm", m, e, 1)]
        elif m_in < m:
            ops.append(("pad", m, e, 1))
        ops.append(("norm+add+relu", m, e, 1) if original else ("add", m, e, 1))
        rows += [("trunk", spec, *op) for op in ops]
    features = cfg.stage_maps[-1]  # and e is the last block's output extent
    if not original:
        rows.append(("trunk", None, "norm+relu", features, e, 1))
    rows.append(("trunk", None, "pool", features, 1, e * e))
    if kind == "crmn":
        rows += [("adapter", None, "pool", s.out_maps, s.out_extent // 2, 4) for s in plan]
        rows += [("lstm", None, "step", cfg.hidden_size, 1, max_lstm_width(cfg))] * len(plan)
        features += cfg.hidden_size
        rows.append(("head", None, "concat", features, 1, 1))
    rows += [("head", None, "dense", cfg.classes, 1, features),
             ("head", None, "bias", cfg.classes, 1, 1)]
    return rows


def _params(op, maps, fan_in):
    """Learned scalars of one trunk or head op; the LSTM's are counted once per cell."""
    if op in ("conv", "dense"):
        return maps * fan_in
    if op.startswith("norm"):
        return 2 * maps
    return maps if op == "bias" else 0


def lstm_param_count(i, h, learn_c0=True):
    """4 gate matrices/biases + 3 peepholes + learned initial state."""
    total = 4 * (h * i + h * h + h) + 3 * h + h
    if learn_c0:
        total += h
    return total


def lstm_step_ops(i, h, batch=1):
    """Exact per-step operation counts of one cell update at input width i. A
    model charges every step this full width, as if each narrower tap were
    zero-padded, although the step multiplies only that tap's rows of W_x."""
    ops = OpCounter()
    ops.mults = batch * (4 * (h * i + h * h) + 6 * h)
    ops.adds = batch * (4 * (h * i + h * h) + 12 * h)
    ops.activations = batch * 5 * h
    return ops


def _charge(ops, op, values, fan_in):
    """Add the operations of one op with ``values`` output values to ``ops``, as
    tensor and layers charge them. A fused op charges the sum of its parts."""
    for part in op.removesuffix(">conv").split("+"):
        if part in ("conv", "dense", "norm"):  # a norm's fan_in is 1: one scale and one shift
            ops.mults += values * fan_in
            ops.adds += values * fan_in
        elif part == "pool":
            ops.mults += values
            ops.adds += values * fan_in
        elif part in ("add", "bias"):
            ops.adds += values
        elif part == "relu":
            ops.activations += values


def _walk(kind, cfg: NetworkConfig, batch):
    """(part, block, ops, params, bytes kept) of each run of ``_model_ops`` rows
    that share a part and a block, in forward order."""
    size = np.dtype(np.float32).itemsize  # training runs in float32
    for (part, block), rows in groupby(_model_ops(kind, cfg), key=itemgetter(0, 1)):
        ops, params, kept = OpCounter(), 0, 0
        for *_, op, maps, extent, fan_in in rows:
            values = batch * maps * extent * extent
            if op == "step":
                _add_into(ops, lstm_step_ops(fan_in, maps, batch))
                values *= 7  # the four gates, tanh(c), and the new c and h
            else:
                _charge(ops, op, values, fan_in)
            params += _params(op, maps, fan_in)
            # each op keeps its output, but a norm run inside a conv op keeps
            # none; every norm keeps its per-map mean and inverse std
            output = 0 if op.endswith(">conv") else values
            kept += size * (output + (2 * maps if op.startswith("norm") else 0))
        yield part, block, ops, params, kept


def cost_report(kind, cfg: NetworkConfig, batch=1) -> CostReport:
    parts, params, breakdown = {}, {}, []
    for part, block, ops, p, _ in _walk(kind, cfg, batch):
        _add_into(parts.setdefault(part, OpCounter()), ops)
        params[part] = params.get(part, 0) + p
        if block is not None:
            breakdown.append({"stage": block.stage, "index": block.index,
                              "maps": block.out_maps, "extent": block.out_extent,
                              "kernel": 3, "cost": ops.total})
    flops = {part: ops.as_dict() for part, ops in parts.items()}
    flops["total"] = sum(ops.total for ops in parts.values())
    params_lstm, step_total, ratio = 0, 0, None
    if kind == "crmn":
        width, h = max_lstm_width(cfg), cfg.hidden_size
        params_lstm = lstm_param_count(width, h, cfg.learn_c0)
        step_total = lstm_step_ops(width, h, batch).total
        ratio = flops["total"] / cost_report("resnet", cfg, batch).flops["total"]
    return CostReport(kind, cfg.as_dict(), params["trunk"], params_lstm, params["head"],
                      flops, breakdown, step_total, ratio)


def tape_bytes(kind, cfg: NetworkConfig, batch=1):
    """Bytes of float32 array data a taped training forward retains, by part and per block.

    A training step peaks at about this plus its parameter gradients, since
    backward frees each entry once its closure has run.
    """
    parts, blocks = {}, []
    for part, block, _, _, kept in _walk(kind, cfg, batch):
        parts[part] = parts.get(part, 0) + kept
        if block is not None:
            blocks.append({"stage": block.stage, "index": block.index, "bytes": kept})
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
