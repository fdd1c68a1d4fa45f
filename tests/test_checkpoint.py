"""Tensor container and model checkpoints: bit-exact round trips."""

import json
import struct

import numpy as np
import pytest

from crmn.checkpoint import MAGIC, load_model, load_tensors, save_model, save_tensors
from crmn.errors import FormatError
from crmn.model import build_crmn, build_resnet
from crmn.resnet import NetworkConfig
from crmn.tensor import Tensor


def micro_cfg(**kw):
    kw.setdefault("classes", 3)
    kw.setdefault("hidden_size", 5)
    return NetworkConfig(n=1, base_maps=4, **kw).validate()


def test_tensor_container_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = [("a.weight", rng.standard_normal((3, 4)).astype(np.float32)),
               ("b.shift", rng.standard_normal(7)),  # float64 on purpose
               ("c.scalarish", np.array([1.5], dtype=np.float32))]
    path = tmp_path / "pack.crmn"
    save_tensors(path, {"note": "roundtrip"}, tensors)
    manifest, back = load_tensors(path)
    assert manifest["note"] == "roundtrip"
    assert manifest["format"] == "crmn-tensors-1"
    assert list(back) == ["a.weight", "b.shift", "c.scalarish"]
    for name, arr in tensors:
        assert back[name].dtype == arr.dtype
        assert back[name].tobytes() == arr.tobytes()


def test_container_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(FormatError):
        save_tensors(tmp_path / "x.crmn", {},
                     [("ints", np.arange(3, dtype=np.int32))])


def test_container_detects_corruption(tmp_path):
    path = tmp_path / "pack.crmn"
    save_tensors(path, {}, [("w", np.ones((2, 2), dtype=np.float32))])
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.crmn"
    bad_magic.write_bytes(b"NOTMINE!" + blob[8:])
    with pytest.raises(FormatError):
        load_tensors(bad_magic)

    truncated = tmp_path / "short.crmn"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        load_tensors(truncated)

    trailing = tmp_path / "long.crmn"
    trailing.write_bytes(blob + b"\x00" * 4)
    with pytest.raises(FormatError):
        load_tensors(trailing)

    retagged = tmp_path / "dtype.crmn"
    retagged.write_bytes(blob.replace(b'"<f4"', b'"<i4"', 1))
    with pytest.raises(FormatError):
        load_tensors(retagged)


def write_container(path, manifest, payload=b""):
    """A container with a hand-written manifest, for malformed-input tests."""
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)
    return path


GOOD_ENTRY = {"name": "w", "dtype": "<f4", "shape": [2, 2]}
PAYLOAD = np.ones((2, 2), dtype="<f4").tobytes()


def test_container_rejects_a_manifest_that_is_a_list(tmp_path):
    path = write_container(tmp_path / "list.crmn", [GOOD_ENTRY], PAYLOAD)
    with pytest.raises(FormatError, match="not a JSON object"):
        load_tensors(path)


def test_container_rejects_a_manifest_without_tensors(tmp_path):
    path = write_container(tmp_path / "bare.crmn", {"format": "crmn-tensors-1"}, PAYLOAD)
    with pytest.raises(FormatError, match="no tensor list"):
        load_tensors(path)


@pytest.mark.parametrize("missing, message", [("shape", "invalid shape"),
                                              ("name", "without a name")])
def test_container_rejects_an_entry_missing_a_field(tmp_path, missing, message):
    entry = {key: value for key, value in GOOD_ENTRY.items() if key != missing}
    path = write_container(tmp_path / "entry.crmn",
                           {"format": "crmn-tensors-1", "tensors": [entry]}, PAYLOAD)
    with pytest.raises(FormatError, match=message):
        load_tensors(path)


def test_container_rejects_a_negative_dimension(tmp_path):
    entry = dict(GOOD_ENTRY, shape=[-2, 2])
    path = write_container(tmp_path / "negative.crmn",
                           {"format": "crmn-tensors-1", "tensors": [entry]}, PAYLOAD)
    with pytest.raises(FormatError, match=r"invalid shape \[-2, 2\]"):
        load_tensors(path)


def test_model_checkpoint_roundtrip_restores_everything(tmp_path):
    model = build_crmn(micro_cfg(), seed=3)
    x = Tensor(np.random.default_rng(4).random((4, 3, 32, 32), dtype=np.float32))
    model.forward(x, training=True)  # shift the running statistics
    logits_before = model.forward(x).data.copy()

    path = tmp_path / "model.crmn"
    save_model(model, path)
    back = load_model(path)

    assert back.kind == "crmn"
    assert back.cfg.as_dict() == model.cfg.as_dict()
    for (na, ta, da), (nb, tb, db) in zip(model.named_params(), back.named_params()):
        assert na == nb and da == db
        assert ta.data.tobytes() == tb.data.tobytes()
    for (na, aa), (nb, ab) in zip(model.named_state(), back.named_state()):
        assert na == nb
        assert aa.tobytes() == ab.tobytes()
    assert back.forward(x).data.tobytes() == logits_before.tobytes()


def test_plain_trunk_checkpoint_roundtrip(tmp_path):
    model = build_resnet(micro_cfg(), seed=5)
    path = tmp_path / "resnet.crmn"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "resnet"
    x = Tensor(np.random.default_rng(6).random((2, 3, 32, 32), dtype=np.float32))
    assert back.forward(x).data.tobytes() == model.forward(x).data.tobytes()


def test_checkpoint_carries_learn_c0_flag(tmp_path):
    model = build_crmn(micro_cfg(learn_c0=False), seed=7)
    path = tmp_path / "frozen.crmn"
    save_model(model, path)
    back = load_model(path)
    assert back.cfg.learn_c0 is False
    assert "lstm.c0" not in {n for n, _, _ in back.named_params()}


def test_checkpoint_rejects_mismatched_contents(tmp_path):
    model = build_crmn(micro_cfg(), seed=8)
    path = tmp_path / "model.crmn"
    extra = {"kind": "crmn", "config": model.cfg.as_dict(),
             "flatten_order": "map,row,col"}
    # drop one tensor from the pack
    tensors = [(n, t.data) for n, t, _ in model.named_params()][:-1]
    tensors += [(n, a) for n, a in model.named_state()]
    save_tensors(path, extra, tensors)
    with pytest.raises(FormatError):
        load_model(path)

    bad_kind = tmp_path / "kind.crmn"
    extra["kind"] = "transformer"
    save_tensors(bad_kind, extra, tensors)
    with pytest.raises(FormatError):
        load_model(bad_kind)


@pytest.mark.parametrize("config, message", [
    (None, "config must be an object"),
    ([1, 16], "config must be an object"),
    ({"colour": "red"}, "do not match"),
    ({"n": "1"}, "'n' is '1', expected int"),
], ids=["missing", "not-an-object", "unknown-field", "wrong-type"])
def test_checkpoint_rejects_a_malformed_config(tmp_path, config, message):
    model = build_resnet(micro_cfg(), seed=9)
    if isinstance(config, dict):
        config = {**model.cfg.as_dict(), **config}
    extra = {"kind": "resnet", "flatten_order": "map,row,col"}
    if config is not None:
        extra["config"] = config
    tensors = [(n, t.data) for n, t, _ in model.named_params()]
    tensors += [(n, a) for n, a in model.named_state()]
    path = tmp_path / "config.crmn"
    save_tensors(path, extra, tensors)
    with pytest.raises(FormatError, match=message):
        load_model(path)
