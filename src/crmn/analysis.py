"""Closed-form parameter and operation accounting.

Counts derive from the config alone, never from instantiated tensors. The
operation convention: every scalar multiply, add, and activation evaluation
is one operation; data movement (padding, subsampling, reshapes, concat,
broadcast) is free; batch-norm costs two operations per element in either
mode since the normalization constants fold into one scale-and-shift.

The report walks the same block plan the builder uses and applies the same
per-op formulas the instrumented tensor ops charge, totalled in the same
``OpCounter`` that ``count_ops()`` yields, so an instrumented forward pass
must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError
from .model import max_lstm_width
from .resnet import NetworkConfig, block_plan
from .tensor import OpCounter

KINDS = ("resnet", "crmn")


def _conv(ops, b, co, e_out, ci, k):
    n = b * co * e_out * e_out * ci * k * k
    ops.mults += n
    ops.adds += n


def _norm(ops, size):
    ops.mults += size
    ops.adds += size


def _act(ops, size):
    ops.activations += size


def _matmul(ops, m, k, p):
    ops.mults += m * k * p
    ops.adds += m * k * p


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
    def flops_forward_per_image(self):
        return self.flops["total"]

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


def trunk_param_count(cfg: NetworkConfig):
    variant = cfg.resolved_variant
    total = 27 * cfg.base_maps
    if variant == "original":
        total += 2 * cfg.base_maps
    for spec in block_plan(cfg):
        m_in, m = spec.in_maps, spec.out_maps
        norm1 = m if variant == "original" else m_in
        total += 9 * m_in * m + 2 * norm1 + 9 * m * m + 2 * m
        if spec.changes_shape and cfg.shortcut == "projection":
            total += m_in * m + 2 * m
    if variant == "preactivation":
        total += 2 * cfg.stage_maps[-1]
    return total


def lstm_param_count(i, h, learn_c0=True):
    """4 gate matrices/biases + 3 peepholes + learned initial state."""
    total = 4 * (h * i + h * h + h) + 3 * h + h
    if learn_c0:
        total += h
    return total


def _trunk_flops(cfg: NetworkConfig, batch, breakdown):
    variant = cfg.resolved_variant
    ops = OpCounter()
    e = cfg.input_extent
    b = batch
    _conv(ops, b, cfg.base_maps, e, 3, 3)
    if variant == "original":
        _norm(ops, b * cfg.base_maps * e * e)
        _act(ops, b * cfg.base_maps * e * e)
    for spec in block_plan(cfg):
        block = OpCounter()
        m_in, m = spec.in_maps, spec.out_maps
        e_in, e_out = spec.in_extent, spec.out_extent
        if variant == "original":
            _conv(block, b, m, e_out, m_in, 3)
            _norm(block, b * m * e_out * e_out)
            _act(block, b * m * e_out * e_out)
            _conv(block, b, m, e_out, m, 3)
            _norm(block, b * m * e_out * e_out)
        else:
            _norm(block, b * m_in * e_in * e_in)
            _act(block, b * m_in * e_in * e_in)
            _conv(block, b, m, e_out, m_in, 3)
            _norm(block, b * m * e_out * e_out)
            _act(block, b * m * e_out * e_out)
            _conv(block, b, m, e_out, m, 3)
        if spec.changes_shape and cfg.shortcut == "projection":
            _conv(block, b, m, e_out, m_in, 1)
            _norm(block, b * m * e_out * e_out)
        block.adds += b * m * e_out * e_out
        if variant == "original":
            _act(block, b * m * e_out * e_out)
        breakdown.append({"stage": spec.stage, "index": spec.index, "maps": m,
                          "extent": e_out, "kernel": 3, "cost": block.total})
        _add_into(ops, block)
    final_maps = cfg.stage_maps[-1]
    final_extent = cfg.input_extent // 4
    if variant == "preactivation":
        _norm(ops, b * final_maps * final_extent * final_extent)
        _act(ops, b * final_maps * final_extent * final_extent)
    # global average pool
    ops.mults += b * final_maps
    ops.adds += b * final_maps * final_extent * final_extent
    return ops


def _adapter_flops(cfg: NetworkConfig, batch):
    ops = OpCounter()
    for spec in block_plan(cfg):
        out = batch * spec.out_maps * (spec.out_extent // 2) ** 2
        ops.mults += out
        ops.adds += 4 * out
    return ops


def lstm_step_ops(i, h, batch=1):
    """Exact per-step operation counts of one cell update."""
    ops = OpCounter()
    ops.mults = batch * (4 * (h * i + h * h) + 6 * h)
    ops.adds = batch * (4 * (h * i + h * h) + 12 * h)
    ops.activations = batch * 5 * h
    return ops


def _head_flops(d, classes, batch):
    ops = OpCounter()
    _matmul(ops, batch, d, classes)
    ops.adds += batch * classes
    return ops


def cost_report(kind, cfg: NetworkConfig, batch=1) -> CostReport:
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    cfg.validate()
    breakdown = []
    trunk_ops = _trunk_flops(cfg, batch, breakdown)
    flops = {"trunk": trunk_ops.as_dict()}
    params_trunk = trunk_param_count(cfg)
    h = cfg.hidden_size
    if kind == "crmn":
        width = max_lstm_width(cfg)
        adapter_ops = _adapter_flops(cfg, batch)
        step = lstm_step_ops(width, h, batch)
        lstm_ops = OpCounter()
        _add_into(lstm_ops, step, times=3 * cfg.n)
        head_ops = _head_flops(cfg.stage_maps[-1] + h, cfg.classes, batch)
        flops["adapter"] = adapter_ops.as_dict()
        flops["lstm"] = lstm_ops.as_dict()
        flops["head"] = head_ops.as_dict()
        parts = (trunk_ops, adapter_ops, lstm_ops, head_ops)
        params_lstm = lstm_param_count(width, h, cfg.learn_c0)
        params_head = (cfg.stage_maps[-1] + h) * cfg.classes + cfg.classes
        step_total = step.total
        plain = cost_report("resnet", cfg, batch)
        ratio = None
    else:
        head_ops = _head_flops(cfg.stage_maps[-1], cfg.classes, batch)
        flops["head"] = head_ops.as_dict()
        parts = (trunk_ops, head_ops)
        params_lstm = 0
        params_head = cfg.stage_maps[-1] * cfg.classes + cfg.classes
        step_total = 0
        plain = None
        ratio = None
    flops["total"] = sum(p.total for p in parts)
    report = CostReport(kind, cfg.as_dict(), params_trunk, params_lstm, params_head,
                        flops, breakdown, step_total, ratio)
    if plain is not None:
        report.flops_ratio_vs_resnet = report.flops["total"] / plain.flops["total"]
    return report


def config_for(layers, fm_mult, hidden=100, classes=100, variant="auto",
               input_extent=32, **kwargs) -> NetworkConfig:
    """Config from a Table-style (layers, feature-map multiplier) cell."""
    if layers < 8 or (layers - 2) % 6:
        raise InputError(f"layers must be 6n+2 for integer n >= 1, got {layers}")
    base = 16 * fm_mult
    if abs(base - round(base)) > 1e-9 or round(base) < 1:
        raise InputError(f"fm-mult {fm_mult} does not give a whole positive map count")
    return NetworkConfig(n=(layers - 2) // 6, base_maps=int(round(base)), classes=classes,
                         variant=variant, hidden_size=hidden, input_extent=input_extent,
                         **kwargs).validate()


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
