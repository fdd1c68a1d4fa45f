"""File loaders under arbitrary and mutated input: each returns or raises FormatError.

The schedule and history parsers return or raise another ``CrmnError``
(``InputError``). The examples are derandomized, so every run checks the
same inputs.
"""

import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crmn.checkpoint import MAGIC, load_model, load_tensors, save_model
from crmn.data import (_RAW_HEADER, load_cifar_binary, load_raw_dataset, save_raw_dataset,
                       synth_dataset)
from crmn.errors import CrmnError, FormatError
from crmn.model import build_crmn, build_resnet
from crmn.resnet import NetworkConfig
from crmn.training import GROUPS, HISTORY_COLUMNS, read_history, read_schedule

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

LOADERS = {
    "raw": load_raw_dataset,
    "c10": lambda path: load_cifar_binary(path, "c10"),
    "c100": lambda path: load_cifar_binary(path, "c100"),
    "tensors": load_tensors,
    "model": load_model,
}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)
DELETE = object()


def returns_or_format_error(load, path, blob):
    path.write_bytes(blob)
    try:
        load(path)
    except FormatError:
        pass


@pytest.mark.parametrize("loader", sorted(LOADERS))
@FUZZ
@given(blob=st.binary(max_size=300) | st.binary(max_size=40).map(lambda b: MAGIC + b))
def test_arbitrary_bytes(tmp_path, loader, blob):
    returns_or_format_error(LOADERS[loader], tmp_path / "fuzz.bin", blob)


@pytest.fixture(scope="module")
def raw_container(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "data.crtd"
    save_raw_dataset(synth_dataset(3, 2, seed=0, extent=4), path)
    return path.read_bytes()


@FUZZ
@given(fields=st.lists(st.tuples(st.integers(1, 7),  # a header field after the magic
                                 st.integers(0, 2**32 - 1) | st.integers(0, 8)), max_size=2),
       label=st.tuples(st.integers(0, 99), st.integers(0, 255)),
       cut=st.just(0) | st.integers(-2, 2))
def test_raw_headers_with_mutated_fields(tmp_path, raw_container, fields, label, cut):
    header = list(_RAW_HEADER.unpack_from(raw_container))
    for index, value in fields:
        header[index] = value
    _, _, width, n, c, h, w, _ = header
    body = bytearray(raw_container[_RAW_HEADER.size:])
    body[label[0] % len(body)] = label[1]
    size = n * width + n * c * h * w + cut
    if 0 <= size <= 4096:  # a payload that fits the mutated header, give or take cut
        body = (body * (size // len(body) + 1))[:size]
    returns_or_format_error(load_raw_dataset, tmp_path / "fuzz.crtd",
                            _RAW_HEADER.pack(*header) + bytes(body))


@pytest.mark.parametrize("variant, label_bytes", [("c10", 1), ("c100", 2)])
@FUZZ
@given(labels=st.lists(st.integers(0, 255), min_size=1, max_size=6), seed=st.integers(0, 9))
def test_cifar_records_with_arbitrary_labels(tmp_path, variant, label_bytes, labels, seed):
    pixels = np.random.default_rng(seed).integers(0, 256, (len(labels) // label_bytes, 3072),
                                                  np.uint8)
    records = np.concatenate([np.array(labels[:label_bytes * len(pixels)], np.uint8)
                              .reshape(-1, label_bytes), pixels], axis=1)
    returns_or_format_error(lambda path: load_cifar_binary(path, variant),
                            tmp_path / "fuzz.bin", records.tobytes())


@pytest.fixture(scope="module", params=["crmn", "resnet"])
def checkpoint(request, tmp_path_factory):
    """(manifest, payload) of a micro checkpoint that records a mean_pixel mean image."""
    cfg = NetworkConfig(n=1, base_maps=2, classes=3, hidden_size=3, input_extent=8)
    path = tmp_path_factory.mktemp("fuzz") / "model.crmn"
    model = (build_crmn if request.param == "crmn" else build_resnet)(cfg)
    model.normalize = "mean_pixel"
    model.mean_image = np.random.default_rng(0).random((3, 8, 8), dtype=np.float32)
    save_model(model, path)
    blob = path.read_bytes()
    start = len(MAGIC) + 8
    (size,) = struct.unpack_from("<Q", blob, len(MAGIC))
    return json.loads(blob[start:start + size]), blob[start + size:]


def mutation_sites(node, path=()):
    """Paths to every field of a JSON tree, nested ones included."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    sites = []
    for key, child in children:
        sites += [path + (key,)] + mutation_sites(child, path + (key,))
    return sites


SIZES = st.integers(-3, 2**31) | st.integers(-10**400, 10**400)
WORDS = st.sampled_from(["crmn", "resnet", "auto", "original", "preactivation", "pad",
                         "projection", "sigmoid", "<f4", "<f8", "none", "mean_pixel", "gcn"])


def values_like(old):
    """Any JSON value, a deletion, or a value of the same type as ``old``."""
    like = {bool: st.booleans(), int: SIZES, float: st.floats(), str: WORDS | st.text(max_size=6)}
    return like.get(type(old), JSON) | st.just(DELETE) | JSON


@FUZZ
@given(data=st.data(), part=st.sampled_from(["config", "tensors", "normalize", None]),
       cut=st.just(0) | st.integers(-8, 8))
def test_checkpoints_with_mutated_fields(tmp_path, checkpoint, data, part, cut):
    manifest, payload = copy.deepcopy(checkpoint[0]), checkpoint[1]
    for _ in range(data.draw(st.integers(1, 2))):
        # three quarters of the mutations go to the config, the tensor list or the
        # normalization
        sites = mutation_sites(manifest)
        *parents, last = data.draw(st.sampled_from(
            [site for site in sites if site[0] == part] or sites))
        owner = manifest
        for key in parents:
            owner = owner[key]
        value = data.draw(values_like(owner[last]))
        if value is DELETE:
            del owner[last]
        else:
            owner[last] = value
    payload = payload[:len(payload) + cut] if cut < 0 else payload + bytes(cut)
    blob = json.dumps(manifest).encode("utf-8")
    blob = MAGIC + struct.pack("<Q", len(blob)) + blob + payload
    for loader in (load_tensors, load_model):
        returns_or_format_error(loader, tmp_path / "fuzz.crmn", blob)


PARSERS = {"schedule": read_schedule, "history": read_history}
RECORD = st.dictionaries(st.sampled_from(["epoch", "group", "lr", "reload"]),
                         JSON | st.sampled_from(GROUPS), max_size=4)
CELL = st.text(max_size=5) | st.floats().map(repr) | st.integers(-3, 9).map(str)


def returns_or_crmn_error(parse, path, blob):
    path.write_bytes(blob)
    try:
        parse(path)
    except CrmnError:
        pass


@pytest.mark.parametrize("parser", sorted(PARSERS))
@FUZZ
@given(blob=st.binary(max_size=300) | JSON.map(lambda v: json.dumps(v).encode("utf-8")))
def test_parsers_take_arbitrary_bytes(tmp_path, parser, blob):
    returns_or_crmn_error(PARSERS[parser], tmp_path / "fuzz.txt", blob)


@FUZZ
@given(records=st.lists(RECORD | JSON, max_size=3))
def test_schedules_with_arbitrary_records(tmp_path, records):
    returns_or_crmn_error(read_schedule, tmp_path / "schedule.json",
                          json.dumps(records).encode("utf-8"))


@FUZZ
@given(rows=st.lists(st.lists(CELL, max_size=8), max_size=3))
def test_histories_with_arbitrary_rows(tmp_path, rows):
    lines = [",".join(HISTORY_COLUMNS)] + [",".join(row) for row in rows]
    returns_or_crmn_error(read_history, tmp_path / "history.csv",
                          "\n".join(lines).encode("utf-8"))
