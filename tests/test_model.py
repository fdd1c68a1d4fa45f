"""Model assembly: tap adaptation, widths, head wiring, snapshots."""

import numpy as np
import pytest

import crmn.model
from crmn.lstm import initial_state, lstm_step
from crmn.model import (
    CrmnModel, TAP_FLATTEN_ORDER, adapt_tap, adapter_trace, build_crmn,
    build_resnet, max_lstm_width,
)
from crmn.resnet import NetworkConfig, trunk_forward
from crmn.tensor import Tensor


def cfg_for(n, base, **kw):
    kw.setdefault("classes", 10)
    return NetworkConfig(n=n, base_maps=base, **kw).validate()


def test_max_width_is_stage_one_pooled_width():
    assert max_lstm_width(cfg_for(3, 16)) == 16 * 256  # 4096
    assert max_lstm_width(cfg_for(3, 64)) == 64 * 256
    assert max_lstm_width(cfg_for(3, 16, input_extent=16)) == 16 * 64


def test_adapter_trace_widths_and_pads():
    trace = adapter_trace(cfg_for(2, 16))
    width = 4096
    by_stage = {1: [], 2: [], 3: []}
    for row in trace:
        by_stage[row.stage].append(row)
    for row in by_stage[1]:
        assert row.pooled_width == width and row.pad == 0
    for row in by_stage[2]:
        assert row.pooled_width == width // 2 and row.pad == width // 2
    for row in by_stage[3]:
        assert row.pooled_width == width // 4 and row.pad == 3 * width // 4
    assert len(trace) == 6


def test_adapt_tap_flattens_map_major_then_pads():
    # two maps, 2x2 each: pooled means land in (map, row, col) order
    tap = Tensor(np.zeros((1, 2, 2, 2)), dtype=np.float64)
    tap.data[0, 0] = [[1.0, 2.0], [3.0, 4.0]]   # mean 2.5
    tap.data[0, 1] = [[-4.0, 0.0], [0.0, 0.0]]  # mean -1.0
    out = adapt_tap(tap, 5)
    assert TAP_FLATTEN_ORDER == "map,row,col"
    assert np.array_equal(out.data, [[2.5, -1.0, 0.0, 0.0, 0.0]])


def test_adapt_tap_spatial_order_is_row_then_col():
    tap = Tensor(np.zeros((1, 1, 4, 4)), dtype=np.float64)
    # fill each 2x2 pooling block with a distinct constant
    for r in range(2):
        for c in range(2):
            tap.data[0, 0, 2 * r:2 * r + 2, 2 * c:2 * c + 2] = 10 * r + c
    out = adapt_tap(tap, 4)
    assert np.array_equal(out.data, [[0.0, 1.0, 10.0, 11.0]])


def test_pad_weight_rows_are_inert_exactly_on_padded_steps():
    # stage-2/3 taps carry zero tails, so the matching input-weight rows
    # cannot move those steps; stage-1 taps fill the width and do react
    cfg = cfg_for(1, 8, hidden_size=6)
    model = build_crmn(cfg, seed=2)
    x = Tensor(np.random.default_rng(3).random((2, 3, 32, 32), dtype=np.float32))
    _, parts = model.forward(x, return_parts=True)
    width = max_lstm_width(cfg)
    vecs = [adapt_tap(t, width) for t in parts["taps"]]  # one tap per stage
    state = initial_state(model.lstm, batch=2)

    def step_h(vec):
        return lstm_step(model.lstm, vec, state).h.data.copy()

    before = [step_h(v) for v in vecs]
    for gate in "ifco":
        getattr(model.lstm, f"w_x{gate}").data[width // 2:, :] += 0.5
    after = [step_h(v) for v in vecs]
    assert not np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])
    assert np.array_equal(before[2], after[2])


def test_head_width_is_pool_plus_hidden():
    cfg = cfg_for(1, 16, hidden_size=100)
    model = build_crmn(cfg, seed=0)
    assert model.head.weight.shape == (164, 10)
    resnet = build_resnet(cfg, seed=0)
    assert resnet.head.weight.shape == (64, 10)


def test_forward_shapes_and_parts():
    cfg = cfg_for(1, 8, hidden_size=7)
    model = build_crmn(cfg, seed=1)
    x = Tensor(np.random.default_rng(0).random((2, 3, 32, 32), dtype=np.float32))
    logits, parts = model.forward(x, training=False, return_parts=True)
    assert logits.shape == (2, 10)
    assert parts["pool_out"].shape == (2, 32)
    assert parts["hidden"].shape == (2, 7)
    assert len(parts["taps"]) == 3


def test_resnet_is_the_model_without_a_memory_path():
    cfg = cfg_for(1, 8, hidden_size=7)
    model = build_resnet(cfg, seed=1)
    assert model.kind == "resnet" and model.lstm is None
    assert build_crmn(cfg, seed=1).kind == "crmn"
    assert not any(n.startswith("lstm.") for n, _, _ in model.named_params())
    x = Tensor(np.random.default_rng(0).random((2, 3, 32, 32), dtype=np.float32))
    _, parts = model.forward(x, return_parts=True)
    assert set(parts) == {"pool_out", "taps"}
    assert crmn.model.ResnetModel is CrmnModel


def test_trunk_is_blind_to_the_memory_path():
    # identical seeds build identical trunks; activations must agree bit for
    # bit whether or not the recurrent reader is attached
    cfg = cfg_for(2, 8, hidden_size=9)
    crmn = build_crmn(cfg, seed=3)
    resnet = build_resnet(cfg, seed=3)
    x = Tensor(np.random.default_rng(4).random((2, 3, 32, 32), dtype=np.float32))
    _, crmn_parts = crmn.forward(x, return_parts=True)
    _, resnet_parts = resnet.forward(x, return_parts=True)
    assert crmn_parts["pool_out"].data.tobytes() == resnet_parts["pool_out"].data.tobytes()
    for a, b in zip(crmn_parts["taps"], resnet_parts["taps"]):
        assert a.data.tobytes() == b.data.tobytes()


def test_zeroing_hidden_head_rows_recovers_pool_only_logits():
    cfg = cfg_for(1, 8, hidden_size=6)
    model = build_crmn(cfg, seed=5)
    model.head.weight.data[32:, :] = 0.0  # silence the memory columns
    x = Tensor(np.random.default_rng(6).random((2, 3, 32, 32), dtype=np.float32))
    logits, parts = model.forward(x, return_parts=True)
    manual = parts["pool_out"].data @ model.head.weight.data[:32] + model.head.bias.data
    assert np.allclose(logits.data, manual, atol=1e-6)


def test_named_params_prefixes_and_decay_flags():
    model = build_crmn(cfg_for(1, 8, hidden_size=5), seed=0)
    rows = model.named_params()
    names = [n for n, _, _ in rows]
    assert len(names) == len(set(names))
    assert any(n.startswith("trunk.stem") for n in names)
    assert any(n.startswith("lstm.w_xi") for n in names)
    assert any(n.startswith("head.") for n in names)
    decay = {n: d for n, _, d in rows}
    assert decay["head.weight"] is True
    assert decay["head.bias"] is False
    assert decay["lstm.b_f"] is False
    assert decay["lstm.h0"] is False
    assert decay["lstm.w_hi"] is True
    assert all(not d for n, _, d in rows if n.endswith(".shift"))
    assert all(d for n, _, d in rows if n.endswith(".scale"))


def test_frozen_c0_drops_out_of_named_params():
    model = build_crmn(cfg_for(1, 4, hidden_size=5, learn_c0=False), seed=0)
    names = [n for n, _, _ in model.named_params()]
    assert "lstm.c0" not in names
    assert "lstm.h0" in names


def test_snapshot_restore_roundtrip_is_bit_exact():
    cfg = cfg_for(1, 8, hidden_size=5)
    model = build_crmn(cfg, seed=7)
    x = Tensor(np.random.default_rng(8).random((4, 3, 32, 32), dtype=np.float32))
    model.forward(x, training=True)  # move the running stats off their defaults
    snap = model.snapshot()
    before = model.forward(x).data.copy()

    for _, t, _ in model.named_params():
        t.data += 0.25
    for _, a in model.named_state():
        a += 1.0
    assert not np.allclose(model.forward(x).data, before)

    model.restore(snap)
    assert model.forward(x).data.tobytes() == before.tobytes()


def test_builders_are_seed_deterministic():
    cfg = cfg_for(1, 8, hidden_size=5)
    a = build_crmn(cfg, seed=11)
    b = build_crmn(cfg, seed=11)
    for (na, ta, _), (nb, tb, _) in zip(a.named_params(), b.named_params()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes()
    c = build_crmn(cfg, seed=12)
    assert c.trunk.stem.weight.data.tobytes() != a.trunk.stem.weight.data.tobytes()


def test_config_roundtrips_through_dict():
    cfg = cfg_for(2, 16, hidden_size=50, variant="preactivation",
                  shortcut="projection", output_gate="sigmoid", learn_c0=False)
    clone = NetworkConfig.from_dict(cfg.as_dict())
    assert clone.as_dict() == cfg.as_dict()
