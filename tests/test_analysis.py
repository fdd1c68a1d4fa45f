"""Parameter and operation accounting against published and derived counts."""

import numpy as np
import pytest

from crmn.analysis import (
    config_for, cost_report, default_grid, lstm_param_count, lstm_step_ops,
    render_table, trunk_param_count,
)
from crmn.errors import InputError
from crmn.model import build_crmn, build_resnet
from crmn.resnet import NetworkConfig
from crmn.tensor import Tensor, count_ops

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
    counts = [trunk_param_count(NetworkConfig(n=n, base_maps=16).validate())
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
