"""Parameter and operation accounting against published and derived counts."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

import crmn.lstm
import crmn.model
from crmn.analysis import (
    config_for, cost_report, default_grid, lstm_param_count, lstm_step_ops,
    render_table, tape_bytes,
)
from crmn.errors import InputError
from crmn.layers import Dense
from crmn.model import build_crmn, build_resnet
from crmn.resnet import NetworkConfig
from crmn.tensor import Tape, Tensor, backward, count_ops, relu, softmax_cross_entropy
from crmn.training import GROUPS, SgdOptimizer

# published parameter totals, in millions, at 100 classes
TABLE_CELLS = [
    ("resnet", 134, 1, 2.12),
    ("resnet", 104, 1.5, 3.67),
    ("resnet", 92, 2, 5.74),
    ("resnet", 62, 4, 15.16),
    ("resnet", 32, 1, 0.47),
    ("resnet", 32, 1.5, 1.05),
    ("resnet", 32, 2, 1.86),
    ("resnet", 32, 4, 7.41),
    ("crmn", 32, 1, 2.16),
    ("crmn", 32, 1.5, 3.56),
    ("crmn", 32, 2, 5.19),
    ("crmn", 32, 4, 14.01),
]


@pytest.mark.parametrize("kind,layers,fm_mult,millions", TABLE_CELLS)
def test_published_parameter_cells(kind, layers, fm_mult, millions):
    report = cost_report(kind, config_for(layers, fm_mult))
    assert abs(report.params_millions - millions) / millions < 0.02
    assert round(report.params_millions, 2) == millions


def test_reference_example_resnet32_mult1():
    report = cost_report("resnet", config_for(32, 1))
    assert report.params_total == 470_004


def test_lstm_parameter_formula_reference_value():
    # 4 gate blocks of (h*i + h*h + h), 3 peepholes, learned h0 and c0
    assert lstm_param_count(4096, 100) == 1_679_300


def test_memory_path_cost_is_depth_independent():
    for base in (16, 32):
        deltas = []
        for n in (3, 5, 8):
            cfg = NetworkConfig(n=n, base_maps=base, classes=100).validate()
            delta = (cost_report("crmn", cfg).params_total
                     - cost_report("resnet", cfg).params_total)
            deltas.append(delta)
        assert deltas[0] == deltas[1] == deltas[2]
    # at base 16 the reader adds the cell plus the extra head rows
    cfg16 = NetworkConfig(n=3, base_maps=16, classes=100).validate()
    delta16 = (cost_report("crmn", cfg16).params_total
               - cost_report("resnet", cfg16).params_total)
    assert delta16 == lstm_param_count(4096, 100) + 100 * 100


def test_trunk_params_are_affine_in_depth():
    counts = [cost_report("resnet", NetworkConfig(n=n, base_maps=16).validate()).params_trunk
              for n in (2, 3, 4, 5)]
    diffs = np.diff(counts)
    assert diffs[0] == diffs[1] == diffs[2]


def test_params_grow_with_width():
    totals = [cost_report("crmn", config_for(32, m)).params_total
              for m in (1, 1.5, 2, 4)]
    assert totals == sorted(totals)


def test_config_for_depth_rule():
    assert config_for(134, 1).n == 22
    assert config_for(32, 4).base_maps == 64
    assert config_for(32, 0.25).base_maps == 4
    assert config_for(32, 1).classes == 100
    with pytest.raises(InputError):
        config_for(31, 1)
    with pytest.raises(InputError):
        config_for(6, 1)


def test_config_for_rejects_counts_a_float_cannot_hold():
    with pytest.raises(InputError, match="too large to report"):
        config_for(32, 1e300)
    # counts near 1e205 still report, as floats and as exact integers
    report = cost_report("crmn", config_for(32, 1e100))
    assert 1e199 < report.params_millions < math.inf
    assert report.as_json()["params"]["total"] == report.params_total


def test_structural_equality_micro_configs():
    cases = [
        ("crmn", NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5)),
        ("resnet", NetworkConfig(n=1, base_maps=4, classes=3)),
        ("crmn", NetworkConfig(n=2, base_maps=8, classes=10, hidden_size=20,
                               shortcut="projection")),
        ("crmn", NetworkConfig(n=1, base_maps=8, classes=5, hidden_size=6,
                               variant="preactivation")),
        ("crmn", NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5,
                               learn_c0=False)),
    ]
    for kind, cfg in cases:
        cfg.validate()
        builder = build_crmn if kind == "crmn" else build_resnet
        model = builder(cfg, seed=0)
        instantiated = sum(t.size for _, t, _ in model.named_params())
        assert cost_report(kind, cfg).params_total == instantiated


def test_instrumented_forward_matches_the_estimate():
    cfg = NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5).validate()
    for kind, builder in (("crmn", build_crmn), ("resnet", build_resnet)):
        model = builder(cfg, seed=0)
        x = Tensor(np.random.default_rng(0).random((1, 3, 32, 32), dtype=np.float32))
        with count_ops() as measured:
            model.forward(x, training=False)
        expected = cost_report(kind, cfg, batch=1).flops
        parts = [v for k, v in expected.items() if k != "total"]
        for key in ("mults", "adds", "activations"):
            assert getattr(measured, key) == sum(p[key] for p in parts)
        assert measured.total == expected["total"]


@pytest.mark.parametrize("kind", ["crmn", "resnet"])
@pytest.mark.parametrize("options", [
    {},
    {"variant": "preactivation", "shortcut": "projection", "output_gate": "sigmoid",
     "learn_c0": False},
], ids=["default", "non-default"])
def test_each_part_counts_what_the_report_charges(kind, options, monkeypatch):
    # each memory-path and head op counts into its own part; the trunk is the rest
    cfg = NetworkConfig(n=2, base_maps=4, classes=3, hidden_size=5, input_extent=16,
                        **options).validate()
    batch = 2
    model = (build_crmn if kind == "crmn" else build_resnet)(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).random((batch, 3, 16, 16), dtype=np.float32))
    counted = {}

    def counting(part, fn):
        def wrapped(*args, **kwargs):
            with count_ops() as ops:
                out = fn(*args, **kwargs)
            totals = counted.setdefault(part, dict.fromkeys(ops.as_dict(), 0))
            for key, value in ops.as_dict().items():
                totals[key] += value
            return out
        return wrapped

    monkeypatch.setattr(crmn.model, "adapt_tap", counting("adapter", crmn.model.adapt_tap))
    monkeypatch.setattr(crmn.lstm, "lstm_step", counting("lstm", crmn.lstm.lstm_step))
    monkeypatch.setattr(Dense, "forward", counting("head", Dense.forward))
    with count_ops() as total:
        model.forward(x, training=False)
    counted["trunk"] = {key: value - sum(part[key] for part in counted.values())
                        for key, value in total.as_dict().items()}
    flops = cost_report(kind, cfg, batch).flops
    assert counted == {part: ops for part, ops in flops.items() if part != "total"}


def _taped_growth(fn):
    """Traced bytes still allocated after ``fn`` runs under a tape."""
    gc.collect()  # garbage left by earlier tests must not be freed mid-measurement
    tracemalloc.start()
    try:
        with Tape():
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


MICRO_MODELS = pytest.mark.parametrize("kind,cfg", [
    ("crmn", NetworkConfig(n=1, base_maps=4, classes=3, hidden_size=5)),
    ("resnet", NetworkConfig(n=1, base_maps=4, classes=3)),
    ("crmn", NetworkConfig(n=2, base_maps=8, classes=10, hidden_size=20,
                           shortcut="projection")),
    ("resnet", NetworkConfig(n=1, base_maps=8, classes=5, variant="preactivation")),
], ids=["crmn", "resnet", "crmn-projection", "resnet-preactivation"])


def _stem_output(trunk, x, training):
    y = trunk.stem.forward(x)
    if trunk.stem_bn is not None:
        y = relu(trunk.stem_bn.forward(y, training))
    return y


@MICRO_MODELS
def test_block_breakdown_matches_the_ops_each_block_counts(kind, cfg):
    batch = 2
    model = (build_crmn if kind == "crmn" else build_resnet)(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).random((batch, 3, 32, 32), dtype=np.float32))
    y = _stem_output(model.trunk, x, training=False)
    rows = cost_report(kind, cfg, batch).block_breakdown
    for block, row in zip(model.trunk.blocks, rows, strict=True):
        with count_ops() as counted:
            y = block.forward(y, training=False)
        assert (row["stage"], row["index"]) == (block.spec.stage, block.spec.index)
        assert counted.total == row["cost"], row


@MICRO_MODELS
def test_tape_bytes_match_traced_growth_of_a_training_forward(kind, cfg):
    # the count leaves out Python object headers, so traced growth exceeds it
    # by those alone: under 5% of each block and of the whole forward at batch 8
    batch = 8
    model = (build_crmn if kind == "crmn" else build_resnet)(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).random((batch, 3, 32, 32), dtype=np.float32))
    with Tape():
        model.forward(x, training=True)  # first calls allocate one-off state
    expected = tape_bytes(kind, cfg, batch)
    grown = _taped_growth(lambda: model.forward(x, training=True))
    assert 0 <= grown - expected["total"] < 0.05 * expected["total"]
    assert expected["total"] == sum(v for k, v in expected.items()
                                    if k not in ("total", "blocks"))

    y = _stem_output(model.trunk, x, training=True)
    for block, row in zip(model.trunk.blocks, expected["blocks"], strict=True):
        grown = _taped_growth(lambda: block.forward(y, training=True))
        assert 0 <= grown - row["bytes"] < 0.05 * row["bytes"]
        y = block.forward(y, training=True)


def test_a_training_step_peaks_at_its_tape_plus_its_gradients():
    # backward frees each tape entry once its closure has run, so its
    # temporaries sit on a shrinking tape: measured 2.6 stage-1 maps above
    # tape + gradients, and 6.8 when the tape was held whole until the block exits
    batch, margin_maps = 10, 4.5
    cfg = config_for(32, 1)
    model = build_crmn(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((batch, 3, 32, 32), dtype=np.float32))
    labels = rng.integers(0, cfg.classes, batch)
    optimizer = SgdOptimizer(model.named_params())
    lrs = dict.fromkeys(GROUPS, 0.1)

    def step():
        optimizer.zero_grads()
        with Tape():
            backward(softmax_cross_entropy(model.forward(x, training=True), labels))
        optimizer.step(lrs)

    step()  # first calls allocate one-off state
    optimizer.zero_grads()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    gradients = sum(t.data.nbytes for _, t, _ in model.named_params())
    stage1_map = batch * cfg.stage_maps[0] * cfg.input_extent ** 2 * 4  # float32
    assert peak <= tape_bytes("crmn", cfg, batch)["total"] + gradients + margin_maps * stage1_map


@pytest.mark.parametrize("variant", ["original", "preactivation"])
def test_a_training_step_peaks_under_52_stage1_maps(variant):
    # each norm+ReLU that only one conv reads is recomputed in that conv's
    # backward, not kept: measured 47.6 maps (original) and 46.6
    # (preactivation), against 56.4 and 64.9 when those norms kept their outputs
    batch = 10
    cfg = config_for(32, 1, variant=variant)
    model = build_crmn(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((batch, 3, 32, 32), dtype=np.float32))
    labels = rng.integers(0, cfg.classes, batch)
    optimizer = SgdOptimizer(model.named_params())

    def step():
        optimizer.zero_grads()
        with Tape():
            backward(softmax_cross_entropy(model.forward(x, training=True), labels))
        optimizer.step(dict.fromkeys(GROUPS, 0.1))

    step()  # first calls allocate one-off state
    optimizer.zero_grads()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    stage1_map = batch * cfg.stage_maps[0] * cfg.input_extent ** 2 * 4  # float32
    assert peak < 52 * stage1_map


def test_lstm_step_cost_is_linear_in_input_width():
    h = 100
    widths = (1024, 2048, 4096)
    costs = [lstm_step_ops(i, h).total for i in widths]
    assert costs[2] - costs[1] == 2 * (costs[1] - costs[0])
    # exact per-step formulae at batch 1
    ops = lstm_step_ops(4096, 100)
    assert ops.mults == 4 * (100 * 4096 + 100 * 100) + 6 * 100
    assert ops.adds == 4 * (100 * 4096 + 100 * 100) + 12 * 100
    assert ops.activations == 5 * 100


def test_cost_report_fields_and_ratio():
    cfg = config_for(32, 1)
    crmn = cost_report("crmn", cfg)
    resnet = cost_report("resnet", cfg)
    assert crmn.params_total == crmn.params_trunk + crmn.params_lstm + crmn.params_head
    assert resnet.params_lstm == 0
    assert crmn.params_trunk == resnet.params_trunk
    assert crmn.flops_ratio_vs_resnet == pytest.approx(
        crmn.flops["total"] / resnet.flops["total"])
    assert crmn.lstm_step_flops > 0
    payload = crmn.as_json()
    assert payload["params"]["millions"] == 2.16
    assert payload["kind"] == "crmn"
    assert set(payload["flops"]) == {"trunk", "adapter", "lstm", "head", "total"}
    assert set(resnet.as_json()["flops"]) == {"trunk", "head", "total"}


def test_default_grid_matches_published_layout():
    grid = default_grid()
    assert len(grid) == 12
    assert [(k, c.layers) for k, c in grid[:4]] == [
        ("resnet", 134), ("resnet", 104), ("resnet", 92), ("resnet", 62)]
    assert all(k == "crmn" for k, _ in grid[8:])


def test_render_table_shapes():
    lines = render_table(default_grid()).splitlines()
    assert len(lines) == 14  # header, rule, 12 rows
    assert lines[0].split()[0] == "Model"
    empty = render_table([]).splitlines()
    assert len(empty) == 2  # header and rule only
    assert empty[0].startswith("Model")
