"""Named-tensor checkpoint container.

Layout: an 8-byte magic, a little-endian uint64 manifest length, a JSON
manifest, then each tensor's raw little-endian bytes concatenated in
manifest order. The manifest records the model kind and full config
(including flatten order and the output-gate choice), so a file is
self-describing; round trips are bit-exact.

Batch-norm running statistics are stored alongside the trainable tensors
so a reloaded model evaluates identically.

Loading draws no random initialization: ``load_model`` builds the model with
``seed=None`` (every array allocated, nothing drawn) in the dtype of the
file's parameters, then copies each file tensor into its array. A tensor
whose name, shape or dtype differs from its destination's is a
``FormatError``; batch-norm running statistics are always float64.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .analysis import KINDS, cost_report
from .atomic import atomic_open
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
    with atomic_open(path, "wb") as fh:
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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
        try:
            arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape)
        except ValueError as exc:  # an empty shape NumPy cannot hold (>64 dims, huge dims)
            raise FormatError(f"{path}: {name!r} has shape {list(shape)}: {exc}") from None
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
    save_tensors(path, extra, model.named_arrays())


def load_model(path):
    """Rebuild the model a ``save_model`` file holds, in the file's dtype.

    Nothing is drawn: the model is built with ``seed=None`` and every array
    is then overwritten from the file (``lstm.c0`` of a cell without a
    learned c0 is not in the file and stays zeros). Raises ``FormatError``
    for a bad config or kind, or for a tensor whose name, shape or dtype does
    not match the model the config describes.
    """
    manifest, tensors = load_tensors(path)
    try:
        cfg = NetworkConfig.from_dict(manifest.get("config"))
    except InputError as exc:
        raise FormatError(f"{path}: bad model config: {exc}") from None
    kind = manifest.get("kind")
    if kind not in KINDS:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    # no real model has fewer values than n, maps, hidden units or classes; ruling
    # those out first keeps cost_report's walk over 3n blocks short and its ratio finite
    count = sum(arr.size for arr in tensors.values())
    if (max(cfg.n, cfg.base_maps, cfg.hidden_size, cfg.classes) > count
            or cost_report(kind, cfg).params_total > count):
        raise FormatError(f"{path}: config needs more parameters than the "
                          f"{count} values the file holds")
    # checkpoint order puts a parameter first; its dtype is the model's
    dtype = next(iter(tensors.values())).dtype
    model = (build_crmn if kind == "crmn" else build_resnet)(cfg, seed=None, dtype=dtype)
    arrays = dict(model.named_arrays())
    if arrays.keys() != tensors.keys():
        missing = sorted(arrays.keys() - tensors.keys())[:3]
        surplus = sorted(tensors.keys() - arrays.keys())[:3]
        raise FormatError(f"{path}: tensor names do not match config "
                          f"(missing {missing}, surplus {surplus})")
    for name, dest in arrays.items():
        if tensors[name].shape != dest.shape:
            raise FormatError(f"{path}: {name} has shape {tensors[name].shape}, "
                              f"expected {dest.shape}")
        if tensors[name].dtype != dest.dtype:
            raise FormatError(f"{path}: {name} has dtype {tensors[name].dtype}, "
                              f"expected {dest.dtype}")
        dest[...] = tensors[name]
    return model
