"""Tensor container and model checkpoints: bit-exact round trips."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

import crmn.checkpoint
from crmn.checkpoint import MAGIC, load_model, load_tensors, save_model, save_tensors
from crmn.errors import ContractError, FormatError
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


@pytest.mark.parametrize("shape", [[0, 2**70], [0, 2**62, 2**62], [0] * 70],
                         ids=["dim-past-int64", "size-past-int64", "70-dims"])
def test_container_rejects_an_empty_shape_numpy_cannot_hold(tmp_path, shape):
    entry = dict(GOOD_ENTRY, shape=shape)
    path = write_container(tmp_path / "empty.crmn",
                           {"format": "crmn-tensors-1", "tensors": [entry]})
    with pytest.raises(FormatError, match="'w' has shape"):
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


def test_container_rejects_a_deeply_nested_manifest(tmp_path):
    blob = b"[" * 200_000
    path = tmp_path / "nested.crmn"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(FormatError, match="unreadable manifest"):
        load_tensors(path)


@pytest.mark.parametrize("kind, config", [
    ("crmn", {"input_extent": 2**31}),
    ("crmn", {"n": 300, "base_maps": 512}),
    ("resnet", {"n": 300, "base_maps": 512}),
], ids=["crmn-extent", "crmn-depth-width", "resnet-depth-width"])
def test_checkpoint_config_larger_than_the_file_is_rejected_unbuilt(tmp_path, monkeypatch,
                                                                    kind, config):
    model = (build_crmn if kind == "crmn" else build_resnet)(micro_cfg(), seed=10)
    extra = {"kind": kind, "config": {**model.cfg.as_dict(), **config}}
    path = tmp_path / "big.crmn"
    save_tensors(path, extra, model.named_arrays())
    for name in ("build_crmn", "build_resnet"):
        monkeypatch.setattr(crmn.checkpoint, name, lambda *a, **k: pytest.fail("model built"))
    with pytest.raises(FormatError, match="more parameters than"):
        load_model(path)


def micro_walk(stem, block, final):
    """Layer names of a micro trunk (n=1) whose stages 2 and 3 project their shortcut."""
    return stem + [f"stage{s}.block0.{name}" for s in (1, 2, 3)
                   for name in block + ["proj", "proj_bn"] * (s > 1)] + final


def checkpoint_names(layers):
    """Trunk params, head params, then the running statistics of every norm layer."""
    params = [f"trunk.{layer}.{p}" for layer in layers
              for p in (["scale", "shift"] if "bn" in layer else ["weight"])]
    stats = [f"trunk.{layer}.running_{s}" for layer in layers if "bn" in layer
             for s in ("mean", "var")]
    return params + ["head.weight", "head.bias"] + stats


CHECKPOINT_ORDER = {
    "original": checkpoint_names(
        micro_walk(["stem.conv", "stem.bn"], ["conv1", "bn1", "conv2", "bn2"], [])),
    "preactivation": checkpoint_names(
        micro_walk(["stem.conv"], ["bn1", "conv1", "bn2", "conv2"], ["final.bn"])),
}


@pytest.mark.parametrize("variant", sorted(CHECKPOINT_ORDER))
def test_named_arrays_keep_the_checkpoint_order(tmp_path, variant):
    model = build_resnet(micro_cfg(variant=variant, shortcut="projection"), seed=11)
    path = tmp_path / "order.crmn"
    save_model(model, path)
    manifest, _ = load_tensors(path)
    names = [n for n, _ in model.named_arrays()]
    assert names == CHECKPOINT_ORDER[variant]
    assert [e["name"] for e in manifest["tensors"]] == names
    assert names == ([n for n, _, _ in model.named_params()]
                     + [n for n, _ in model.named_state()])
    back = load_model(path)
    for (_, t, _), (_, a) in zip(back.named_params(), back.named_arrays()):
        assert a is t.data


def test_checkpoint_rejects_a_tensor_of_the_wrong_shape(tmp_path):
    model = build_crmn(micro_cfg(), seed=13)
    arrays = [(n, a.T if n == "lstm.w_xi" else a) for n, a in model.named_arrays()]
    path = tmp_path / "shape.crmn"
    save_tensors(path, {"kind": "crmn", "config": model.cfg.as_dict()}, arrays)
    with pytest.raises(FormatError, match=r"lstm.w_xi has shape \(5, 1024\)"):
        load_model(path)


@pytest.mark.parametrize("bias", [10**400, 1e300, float("nan")], ids=["int", "large", "nan"])
def test_checkpoint_rejects_a_bias_init_outside_float32(tmp_path, bias):
    model = build_crmn(micro_cfg(), seed=12)
    extra = {"kind": "crmn", "config": {**model.cfg.as_dict(), "lstm_bias_init": bias}}
    path = tmp_path / "bias.crmn"
    save_tensors(path, extra, model.named_arrays())
    with pytest.raises(FormatError, match="lstm_bias_init must be a finite float32"):
        load_model(path)


@pytest.mark.parametrize("build", [build_crmn, build_resnet], ids=["crmn", "resnet"])
def test_loading_a_checkpoint_draws_nothing(tmp_path, monkeypatch, build):
    model = build(micro_cfg(), seed=14)
    path = tmp_path / "model.crmn"
    save_model(model, path)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("svd called"))
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: pytest.fail("rng drawn"))
    back = load_model(path)
    for (name, want), (_, got) in zip(model.named_arrays(), back.named_arrays()):
        assert got.tobytes() == want.tobytes(), name


def test_float64_checkpoint_roundtrip_is_bit_exact(tmp_path):
    model = build_crmn(micro_cfg(), seed=0, dtype=np.float64)
    x = Tensor(np.random.default_rng(15).random((4, 3, 32, 32)))
    model.forward(x, training=True)  # shift the running statistics
    path = tmp_path / "model64.crmn"
    save_model(model, path)
    back = load_model(path)
    for (name, want), (_, got) in zip(model.named_arrays(), back.named_arrays()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert back.head.weight.data.dtype == np.float64
    assert back.forward(x).data.tobytes() == model.forward(x).data.tobytes()


@pytest.mark.parametrize("name, dtype, expected", [
    ("lstm.w_xi", np.float64, "float32"),
    ("head.bias", np.float64, "float32"),
    ("trunk.stem.bn.running_var", np.float32, "float64"),
])
def test_checkpoint_rejects_a_tensor_of_another_dtype(tmp_path, name, dtype, expected):
    model = build_crmn(micro_cfg(), seed=16)
    arrays = [(n, a.astype(dtype) if n == name else a) for n, a in model.named_arrays()]
    path = tmp_path / "dtype.crmn"
    save_tensors(path, {"kind": "crmn", "config": model.cfg.as_dict()}, arrays)
    with pytest.raises(FormatError, match=f"{name} has dtype .*, expected {expected}"):
        load_model(path)


def test_loading_without_a_learned_c0_leaves_it_zero(tmp_path):
    model = build_crmn(micro_cfg(learn_c0=False), seed=17)
    path = tmp_path / "frozen.crmn"
    save_model(model, path)
    back = load_model(path)
    assert not back.lstm.c0.requires_grad
    assert back.lstm.c0.data.dtype == np.float32
    assert np.array_equal(back.lstm.c0.data, np.zeros(5))


def test_loading_reads_each_tensor_straight_into_the_model(tmp_path):
    """No second copy of the file's tensors: a CRMN-32x1 load peaks near its own arrays.

    Reading the whole file first, then copying each tensor out and again into
    the model, peaked at twice the arrays' bytes.
    """
    model = build_crmn(NetworkConfig(n=5, base_maps=16, hidden_size=100), seed=0)
    path = tmp_path / "crmn32.crmn"
    save_model(model, path)
    nbytes = sum(a.nbytes for _, a in model.named_arrays())
    tracemalloc.start()
    try:
        back = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * nbytes
    for (name, want), (_, got) in zip(model.named_arrays(), back.named_arrays()):
        assert got.tobytes() == want.tobytes(), name


def test_saving_writes_each_tensor_from_the_model(tmp_path):
    """No second copy of the model's arrays: saving CRMN-32x1 allocates at most its largest
    tensor plus 256 KiB (building every tensor's bytes before writing took 8.4 MiB)."""
    model = build_crmn(NetworkConfig(n=5, base_maps=16, hidden_size=100), seed=0)
    largest = max(a.nbytes for _, a in model.named_arrays())
    tracemalloc.start()
    try:
        save_model(model, tmp_path / "crmn32.crmn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= largest + 2**18
    _, back = load_tensors(tmp_path / "crmn32.crmn")
    for name, want in model.named_arrays():
        assert back[name].tobytes() == want.tobytes(), name


def test_checkpoint_rejects_another_flatten_order(tmp_path):
    model = build_crmn(micro_cfg(), seed=18)
    path = tmp_path / "order.crmn"
    extra = {"kind": "crmn", "config": model.cfg.as_dict(), "flatten_order": "row,col,map"}
    save_tensors(path, extra, model.named_arrays())
    with pytest.raises(FormatError, match="flatten order 'row,col,map'"):
        load_model(path)


def normalized_model(mode, seed=19):
    """A micro CRMN recording ``mode``; mean_pixel's mean image is random."""
    model = build_crmn(micro_cfg(), seed=seed)
    model.normalize = mode
    if mode == "mean_pixel":
        model.mean_image = np.random.default_rng(seed).random((3, 32, 32), dtype=np.float32)
    return model


@pytest.mark.parametrize("mode", ["none", "gcn", "mean_pixel"])
def test_checkpoint_records_the_input_normalization(tmp_path, mode):
    path = tmp_path / "model.crmn"
    save_model(normalized_model(mode), path)
    back = load_model(path)
    assert back.normalize == mode
    manifest, tensors = load_tensors(path)
    assert manifest["normalize"] == mode
    if mode == "mean_pixel":
        assert back.mean_image.tobytes() == tensors["input.mean_image"].tobytes()
    else:
        assert back.mean_image is None and "input.mean_image" not in tensors
    again = tmp_path / "again.crmn"
    save_model(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_a_manifest_without_a_normalization_reads_as_none(tmp_path):
    model = build_crmn(micro_cfg(), seed=20)
    path = tmp_path / "old.crmn"
    save_tensors(path, {"kind": "crmn", "config": model.cfg.as_dict(),
                        "flatten_order": "map,row,col"}, model.named_arrays())
    back = load_model(path)
    assert back.normalize == "none" and back.mean_image is None


def saved_with(path, mode, mean_image):
    """A micro CRMN's arrays saved with normalization ``mode`` and, if given, a mean image."""
    model = build_crmn(micro_cfg(), seed=21)
    arrays = model.named_arrays()
    if mean_image is not None:
        arrays.append(("input.mean_image", mean_image))
    save_tensors(path, {"kind": "crmn", "config": model.cfg.as_dict(), "normalize": mode},
                 arrays)
    return path


@pytest.mark.parametrize("mode, mean_image, message", [
    ("whitening", None, "unknown input normalization 'whitening'"),
    (None, None, "unknown input normalization None"),
    ("mean_pixel", None, r"missing \['input.mean_image'\]"),
    ("mean_pixel", np.zeros((3, 16, 16), np.float32), r"input.mean_image has shape"),
    ("mean_pixel", np.zeros((3, 32, 32)), r"input.mean_image has dtype float64"),
    ("gcn", np.zeros((3, 32, 32), np.float32), r"surplus \['input.mean_image'\]"),
], ids=["unknown", "null", "no-mean-image", "wrong-shape", "wrong-dtype", "gcn-mean-image"])
def test_checkpoint_rejects_a_bad_normalization(tmp_path, mode, mean_image, message):
    path = saved_with(tmp_path / "norm.crmn", mode, mean_image)
    with pytest.raises(FormatError, match=message):
        load_model(path)


@pytest.mark.parametrize("mean_image", [None, np.zeros((3, 16, 16), np.float32),
                                        np.zeros((32, 32, 3), np.float32)],
                         ids=["missing", "wrong-extent", "channels-last"])
def test_save_model_refuses_a_mean_pixel_model_without_its_mean_image(tmp_path, mean_image):
    model = normalized_model("mean_pixel")
    model.mean_image = mean_image
    path = tmp_path / "model.crmn"
    with pytest.raises(ContractError, match=r"needs a \(3, 32, 32\) mean image"):
        save_model(model, path)
    assert not path.exists()


def test_save_model_writes_a_float64_mean_image_as_float32(tmp_path):
    model = normalized_model("mean_pixel")
    image = np.random.default_rng(22).random((3, 32, 32))
    model.mean_image = image
    path = tmp_path / "model.crmn"
    save_model(model, path)
    back = load_model(path)
    assert back.mean_image.dtype == np.float32
    assert back.mean_image.tobytes() == image.astype(np.float32).tobytes()
