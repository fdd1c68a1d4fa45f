"""Named-tensor checkpoint container.

Layout: an 8-byte magic, a little-endian uint64 manifest length, a JSON
manifest, then each tensor's raw little-endian bytes concatenated in
manifest order. The manifest records the model kind and full config
(including flatten order and the output-gate choice), so a file is
self-describing; round trips are bit-exact.

Batch-norm running statistics are stored alongside the trainable tensors
so a reloaded model evaluates identically.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import FormatError, InputError
from .model import TAP_FLATTEN_ORDER, build_crmn, build_resnet
from .resnet import NetworkConfig

MAGIC = b"CRMNTNS1"
FORMAT_NAME = "crmn-tensors-1"

_DTYPE_TAGS = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}
_TAG_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def save_tensors(path, extra, tensors):
    """Write (name, array) pairs with a manifest carrying ``extra`` fields."""
    listing = []
    buffers = []
    for name, arr in tensors:
        try:
            tag = _DTYPE_TAGS[arr.dtype]
        except KeyError:
            raise FormatError(f"unsupported dtype {arr.dtype} for tensor {name!r}") from None
        listing.append({"name": name, "dtype": tag, "shape": list(arr.shape)})
        buffers.append(np.ascontiguousarray(arr).astype(tag, copy=False).tobytes())
    manifest = dict(extra)
    manifest["format"] = FORMAT_NAME
    manifest["tensors"] = listing
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for buf in buffers:
            fh.write(buf)


def _entry_layout(path, entry):
    """Validate one manifest entry; returns (name, dtype, shape)."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise FormatError(f"{path}: tensor entry without a name: {entry!r}")
    name, tag, shape = entry["name"], entry.get("dtype"), entry.get("shape")
    dtype = _TAG_DTYPES.get(tag) if isinstance(tag, str) else None
    if dtype is None:
        raise FormatError(f"{path}: unknown dtype tag {tag!r} for {name!r}")
    if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape):
        raise FormatError(f"{path}: {name!r} has invalid shape {shape!r}")
    return name, dtype, tuple(shape)


def load_tensors(path):
    """Read a container; returns (manifest, ordered dict of name -> array)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 8 or data[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a tensor container (bad magic)")
    (blob_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    if len(data) < start + blob_len:
        raise FormatError(f"{path}: truncated manifest ({len(data)} bytes)")
    try:
        manifest = json.loads(data[start:start + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    if manifest.get("format") != FORMAT_NAME:
        raise FormatError(f"{path}: unknown format {manifest.get('format')!r}")
    listing = manifest.get("tensors")
    if not isinstance(listing, list):
        raise FormatError(f"{path}: manifest has no tensor list")
    offset = start + blob_len
    tensors = {}
    for entry in listing:
        name, dtype, shape = _entry_layout(path, entry)
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(data):
            raise FormatError(f"{path}: truncated at byte {offset} reading {name!r}")
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape)
        tensors[name] = arr.copy()
        offset += nbytes
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes")
    return manifest, tensors


def save_model(model, path):
    extra = {
        "kind": model.kind,
        "config": model.cfg.as_dict(),
        "flatten_order": TAP_FLATTEN_ORDER,
    }
    tensors = [(name, t.data) for name, t, _ in model.named_params()]
    tensors += [(name, arr) for name, arr in model.named_state()]
    save_tensors(path, extra, tensors)


def load_model(path):
    manifest, tensors = load_tensors(path)
    try:
        cfg = NetworkConfig.from_dict(manifest.get("config"))
    except InputError as exc:
        raise FormatError(f"{path}: bad model config: {exc}") from None
    kind = manifest.get("kind")
    if kind == "crmn":
        model = build_crmn(cfg, seed=0)
    elif kind == "resnet":
        model = build_resnet(cfg, seed=0)
    else:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    expected = {name for name, _, _ in model.named_params()}
    expected.update(name for name, _ in model.named_state())
    if expected != set(tensors):
        missing = sorted(expected - set(tensors))[:3]
        surplus = sorted(set(tensors) - expected)[:3]
        raise FormatError(f"{path}: tensor names do not match config "
                          f"(missing {missing}, surplus {surplus})")
    for name, t, _ in model.named_params():
        arr = tensors[name]
        if arr.shape != t.data.shape:
            raise FormatError(f"{path}: {name} has shape {arr.shape}, expected {t.data.shape}")
        t.data = arr.astype(t.data.dtype, copy=False)
    for name, stat in model.named_state():
        arr = tensors[name]
        if arr.shape != stat.shape:
            raise FormatError(f"{path}: {name} has shape {arr.shape}, expected {stat.shape}")
        stat[...] = arr
    return model
