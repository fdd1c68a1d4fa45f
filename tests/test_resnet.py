"""Residual trunk: geometry, identity behaviour, tap semantics."""

import numpy as np
import pytest

from crmn.errors import ContractError, DimensionError, InputError
from crmn.resnet import (
    BlockSpec, NetworkConfig, ResidualBlock, block_plan, build_trunk,
    trunk_forward,
)
from crmn.tensor import Tensor


def cfg_for(n, base, **kw):
    return NetworkConfig(n=n, base_maps=base, classes=10, **kw).validate()


def test_layer_and_tap_counts_follow_depth_rule():
    for n, layers in ((1, 8), (2, 14), (5, 32), (10, 62), (15, 92),
                      (17, 104), (22, 134)):
        cfg = cfg_for(n, 4)
        assert cfg.layers == layers
        trunk = build_trunk(cfg, seed=0)
        assert len(trunk.blocks) == 3 * n


def test_block_plan_geometry():
    plan = block_plan(cfg_for(3, 16))
    assert len(plan) == 9
    strides = [s.stride for s in plan]
    assert strides == [1, 1, 1, 2, 1, 1, 2, 1, 1]
    assert [s.out_maps for s in plan] == [16] * 3 + [32] * 3 + [64] * 3
    assert plan[3].in_maps == 16 and plan[3].out_maps == 32
    assert plan[3].in_extent == 32 and plan[3].out_extent == 16
    assert plan[-1].out_extent == 8
    assert plan[0].changes_shape is False
    assert plan[3].changes_shape is True


def test_tap_shapes_per_stage():
    cfg = cfg_for(2, 8)
    trunk = build_trunk(cfg, seed=1)
    x = Tensor(np.random.default_rng(0).random((2, 3, 32, 32), dtype=np.float32))
    features, taps = trunk.forward(x, training=False)
    assert len(taps) == 6
    assert [t.shape for t in taps] == [(2, 8, 32, 32)] * 2 + \
        [(2, 16, 16, 16)] * 2 + [(2, 32, 8, 8)] * 2
    assert features.shape == (2, 32, 8, 8)


def test_variant_resolution_rule():
    assert cfg_for(3, 16).resolved_variant == "original"
    assert cfg_for(3, 32).resolved_variant == "original"
    assert cfg_for(3, 64).resolved_variant == "preactivation"
    assert cfg_for(3, 16, variant="preactivation").resolved_variant == "preactivation"
    assert cfg_for(3, 64, variant="original").resolved_variant == "original"


def test_config_validation():
    with pytest.raises(InputError):
        NetworkConfig(n=0, base_maps=16).validate()
    with pytest.raises(InputError):
        NetworkConfig(n=2, base_maps=16, variant="bogus").validate()
    with pytest.raises(InputError):
        NetworkConfig(n=2, base_maps=16, input_extent=30).validate()
    with pytest.raises(InputError):
        NetworkConfig(n=2, base_maps=16, shortcut="reflect").validate()


def _zero_branch(block):
    # zeroing the last normalization (original) or last conv (preactivation)
    # silences the residual branch entirely
    if block.variant == "original":
        block.bn2.scale.data[:] = 0.0
        block.bn2.shift.data[:] = 0.0
    else:
        block.conv2.weight.data[:] = 0.0


def test_identity_block_with_silenced_branch_passes_relu_through():
    spec = BlockSpec(1, 1, 4, 4, 1, 8, 8)
    rng = np.random.default_rng(2)
    block = ResidualBlock(spec, "original", "pad", rng, dtype=np.float64)
    _zero_branch(block)
    x = Tensor(np.abs(rng.standard_normal((2, 4, 8, 8))), dtype=np.float64)
    out = block.forward(x, training=False)
    assert np.array_equal(out.data, x.data)  # relu(x) == x for x >= 0


def test_preactivation_identity_block_is_exact_passthrough():
    spec = BlockSpec(1, 1, 4, 4, 1, 8, 8)
    rng = np.random.default_rng(3)
    block = ResidualBlock(spec, "preactivation", "pad", rng, dtype=np.float64)
    _zero_branch(block)
    x = Tensor(rng.standard_normal((2, 4, 8, 8)), dtype=np.float64)  # signs kept
    out = block.forward(x, training=False)
    assert np.array_equal(out.data, x.data)


def test_downsampling_pad_shortcut_subsamples_then_zero_fills():
    spec = BlockSpec(2, 0, 4, 8, 2, 8, 8 // 2)
    rng = np.random.default_rng(4)
    block = ResidualBlock(spec, "preactivation", "pad", rng, dtype=np.float64)
    _zero_branch(block)
    x = Tensor(rng.standard_normal((2, 4, 8, 8)), dtype=np.float64)
    out = block.forward(x, training=False)
    assert out.shape == (2, 8, 4, 4)
    assert np.array_equal(out.data[:, :4], x.data[:, :, ::2, ::2])
    assert np.array_equal(out.data[:, 4:], np.zeros((2, 4, 4, 4)))


def test_projection_shortcut_changes_parameter_count():
    cfg_pad = cfg_for(2, 8, shortcut="pad")
    cfg_proj = cfg_for(2, 8, shortcut="projection")
    n_pad = sum(t.size for _, t in build_trunk(cfg_pad, 0).named_params())
    n_proj = sum(t.size for _, t in build_trunk(cfg_proj, 0).named_params())
    # two shape-changing blocks gain a 1x1 conv plus its normalization
    assert n_proj - n_pad == (8 * 16 + 2 * 16) + (16 * 32 + 2 * 32)


def test_residual_branch_is_not_degenerate():
    cfg = cfg_for(2, 8)
    trunk = build_trunk(cfg, seed=5)
    x = Tensor(np.random.default_rng(6).random((2, 3, 32, 32), dtype=np.float32))
    _, taps = trunk.forward(x, training=False)
    assert taps[0].shape == taps[1].shape == (2, 8, 32, 32)
    # consecutive taps differ: blocks transform, they do not just copy
    assert not np.allclose(taps[0].data, taps[1].data)


def test_zero_input_produces_zero_taps_in_eval():
    cfg = cfg_for(2, 8)
    trunk = build_trunk(cfg, seed=7)
    x = Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32))
    features, taps = trunk.forward(x, training=False)
    # fresh running stats are mean 0 / var 1 and shifts are zero, so zero
    # input stays exactly zero through conv, norm, relu, and shortcuts
    for tap in taps:
        assert not tap.data.any()
    assert not features.data.any()


def test_training_forward_requires_batch_of_two():
    trunk = build_trunk(cfg_for(1, 4), seed=0)
    with pytest.raises(ContractError):
        trunk.forward(Tensor(np.ones((1, 3, 32, 32), dtype=np.float32)),
                      training=True)


def test_named_params_unique_and_prefixed():
    trunk = build_trunk(cfg_for(2, 8), seed=0)
    names = [n for n, _ in trunk.named_params()]
    assert len(names) == len(set(names))
    assert any(n.startswith("stem.") for n in names)
    assert any(n.startswith("stage2.block0.") for n in names)
    state_names = [n for n, _ in trunk.named_state()]
    assert all(n.endswith(("running_mean", "running_var")) for n in state_names)


def test_trunk_forward_returns_pool_and_taps():
    cfg = cfg_for(1, 8)
    trunk = build_trunk(cfg, seed=8)
    x = Tensor(np.random.default_rng(9).random((3, 3, 32, 32), dtype=np.float32))
    pooled, taps = trunk_forward(trunk, x, training=False)
    assert pooled.shape == (3, 32)  # 4 * base maps after stage 3
    assert len(taps) == 3


def test_preactivation_taps_are_post_addition_raw():
    # preactivation taps keep negative values: no output relu on the block
    cfg = cfg_for(2, 8, variant="preactivation")
    trunk = build_trunk(cfg, seed=10)
    x = Tensor(np.random.default_rng(11).standard_normal((2, 3, 32, 32)).astype(np.float32))
    _, taps = trunk.forward(x, training=False)
    assert any((tap.data < 0).any() for tap in taps)

    cfg_orig = cfg_for(2, 8, variant="original")
    trunk_orig = build_trunk(cfg_orig, seed=10)
    _, taps_orig = trunk_orig.forward(x, training=False)
    for tap in taps_orig:  # original taps are post-relu, never negative
        assert (tap.data >= 0.0).all()


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("kw", [{"variant": "original"},
                                {"variant": "preactivation", "shortcut": "projection"}],
                         ids=["original", "preactivation-projection"])
def test_forward_from_a_block_repeats_the_tail_of_a_full_forward(kw, training):
    cfg = cfg_for(2, 4, input_extent=16, **kw)
    trunk = build_trunk(cfg, seed=12, dtype=np.float64)
    x = Tensor(np.random.default_rng(13).standard_normal((2, 3, 16, 16)))
    features, taps = trunk.forward(x, training)
    for j in range(1, len(taps) + 1):
        tail_features, tail = trunk.forward(Tensor(taps[j - 1].data), training, start=j)
        assert np.array_equal(tail_features.data, features.data), j
        assert len(tail) == len(taps) - j
        assert all(np.array_equal(a.data, b.data) for a, b in zip(tail, taps[j:])), j
    pooled, _ = trunk_forward(trunk, Tensor(taps[2].data), training, start=3)
    assert np.array_equal(pooled.data, trunk_forward(trunk, x, training)[0].data)


def test_forward_from_a_block_rejects_the_wrong_input():
    trunk = build_trunk(cfg_for(2, 4, input_extent=16), seed=14, dtype=np.float64)
    x = Tensor(np.random.default_rng(15).standard_normal((2, 3, 16, 16)))
    _, taps = trunk.forward(x, training=False)
    with pytest.raises(DimensionError):
        trunk.forward(x, training=False, start=1)  # block 1 takes block 0's maps
    with pytest.raises(DimensionError):
        trunk.forward(taps[1], training=False, start=3)  # stage 1 maps into stage 2
    with pytest.raises(DimensionError):
        trunk.forward(taps[2], training=False)  # the stem takes images
    for start in (-1, len(taps) + 1):
        with pytest.raises(ContractError):
            trunk.forward(taps[-1], training=False, start=start)
