"""Tests of the benchmark's tracer and metric tables.

    python3 -m pytest bench/test_tracer.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from crmn.gradcheck import micro_config  # noqa: E402
from crmn.model import build_crmn  # noqa: E402
from crmn.tensor import Tape, Tensor, softmax_cross_entropy  # noqa: E402
from crmn.training import SgdOptimizer  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import op_check  # noqa: E402


def _originals():
    return {(owner, attr): vars(owner)[attr] for owner, attr, _ in TARGETS}


def _step(model, seed=0):
    """One forward, backward and SGD step of the micro model; returns loss."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(0.0, 1.0, (2, 3, 32, 32)))
    labels = rng.integers(0, 3, 2)
    opt = SgdOptimizer(model.named_params())
    opt.zero_grads()
    with Tape() as tape:
        loss = softmax_cross_entropy(model.forward(x, training=True), labels)
        tape.backward(loss)
    opt.step({"trunk": 0.1, "lstm": 0.1, "head": 0.1})
    return loss.item()


def test_inactive_tracer_leaves_names_identical_and_records_nothing():
    before = _originals()
    tracer = Tracer()
    _step(build_crmn(micro_config(), dtype=np.float64))
    assert not tracer.active
    assert _originals().keys() == before.keys()
    assert all(vars(owner)[attr] is before[(owner, attr)] for owner, attr, _ in TARGETS)
    assert not tracer.stats and not tracer.edges and tracer.tape_entries == 0


def test_active_tracer_restores_names_and_changes_no_result():
    before = _originals()
    plain = _step(build_crmn(micro_config(), dtype=np.float64))
    tracer = Tracer()
    with tracer:
        assert all(vars(owner)[attr] is not before[(owner, attr)]
                   for owner, attr, _ in TARGETS)
        traced = _step(build_crmn(micro_config(), dtype=np.float64))
    assert traced == plain
    assert all(vars(owner)[attr] is before[(owner, attr)] for owner, attr, _ in TARGETS)
    spans = tracer.stats
    assert spans["lstm.step"].calls == 3 * micro_config().n
    assert spans["layers.conv2d"].bwd_s > 0
    assert spans["resnet.stage1"].bwd_calls > 0
    assert tracer.tape_entries > 0


def test_op_check_matches_closed_form_on_micro_model():
    cfg = micro_config()
    mismatches, numerators = op_check(build_crmn(cfg, dtype=np.float64), "crmn", cfg,
                                      np.float64)
    assert mismatches == {}
    assert numerators["convs_per_fwd"] == 1 + 6 * cfg.n
    assert 0 < numerators["conv_ops_per_img"] < numerators["fwd_ops_per_img"]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
